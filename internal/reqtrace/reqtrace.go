// Package reqtrace is the request-scoped companion to internal/trace:
// where trace attributes one build's time to phases per processor,
// reqtrace attributes one *request*'s time to the stations it passed
// through on the serving path. Every partreed and partree-router request
// gets a request ID (the W3C traceparent trace-id when the caller sent
// one — a router's shard calls do — minted otherwise; envelope.go) and
// one record, a *Req, which travels in the context.Context from the HTTP
// handler through internal/engine and internal/runner down to the core
// build; each layer stamps its Station onto it. The record is a table of
// totals, one per station, and a timeline of the stamps that carried a
// start time; every reader reads the table.
//
// The design rules mirror internal/trace:
//
//   - A build with no request behind it (the CLI's runner.Run) carries a
//     nil *Req. Every method on *Req is safe on a nil receiver and
//     returns immediately, so such a build pays one pointer comparison
//     per hook and allocates nothing (pinned in overhead_test.go).
//   - Completed requests land in a fixed-capacity lock-free ring (the
//     flight recorder, recorder.go) served over /debug/requests; the
//     hot path is an atomic pointer store, never a lock.
//   - Rendering is byte-deterministic for deterministic inputs: span
//     offsets are relative to the request start, fields are structs
//     (fixed order), and collections sort by sequence number.
package reqtrace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"sync"
	"time"

	"partree/internal/core"
)

// maxSpans bounds one request's span list; a streaming session that
// steps forever must not grow its flight-recorder entry without bound.
// Past it, spans are dropped (counted) while the totals stay exact.
const maxSpans = 512

// Station is a place on the serving path a request's time is
// attributed to.
type Station uint8

// The stations, in the order a request meets them. Bounds, Insert and
// Moments are the core phases of the request's builds (core.Timing);
// Build is their wall time, and Steps a whole-application run's.
const (
	Read Station = iota
	Queue
	Build
	Steps
	Write
	Bounds
	Insert
	Moments
	numStations
)

var stationNames = [numStations]string{"read", "queue", "build", "steps", "write", "bounds", "insert", "moments"}

func (s Station) String() string { return stationNames[s] }

// Totals is a request's time per station in nanoseconds, exact however
// many spans the timeline kept. It renders as one JSON object keyed by
// station name, in station order.
type Totals [numStations]int64

func (t Totals) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for s, ns := range t {
		if s > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, Station(s).String())
		b = append(b, ':')
		b = strconv.AppendInt(b, ns, 10)
	}
	return append(b, '}'), nil
}

func (t *Totals) UnmarshalJSON(b []byte) error {
	var m map[string]int64
	err := json.Unmarshal(b, &m)
	for s := range t {
		t[s] = m[stationNames[s]]
	}
	return err
}

// Sub is the time t gained over an earlier snapshot u, station by
// station.
func (t Totals) Sub(u Totals) Totals {
	for s := range t {
		t[s] -= u[s]
	}
	return t
}

// Span is one stamp on a request's timeline. StartNs is relative to the
// request's start, so rendered timelines are stable across runs that do
// the same work.
type Span struct {
	Name    string `json:"name"` // the station's
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// Req is one request's record. Handlers create it via Recorder.Start,
// thread it with NewContext, and lower layers recall it with
// FromContext. A nil *Req (no request behind the build) ignores every
// call.
//
// One Req is owned by one request's serving path; stamps may come from
// the goroutines that path runs through (handler, runner worker),
// serialized by mu. Readers (the /debug handlers) lock the same mutex,
// but only for requests already published to the flight recorder.
type Req struct {
	rec   *Recorder
	start time.Time

	// e accumulates the request's Entry in place: totals, spans, and —
	// set by Finish — status, bytes and duration (0 while in flight).
	// Seq is assigned when the recorder publishes the finished Req.
	mu sync.Mutex
	e  Entry
}

// Stamp adds d to station s's total. A non-zero start also puts the
// span [start, start+d) on the timeline (while it has room); a negative
// d counts as zero.
func (r *Req) Stamp(s Station, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	d = max(d, 0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.e.Totals[s] += d.Nanoseconds()
	if start.IsZero() {
		return
	}
	if len(r.e.Spans) < maxSpans {
		r.e.Spans = append(r.e.Spans, Span{Name: s.String(), StartNs: start.Sub(r.start).Nanoseconds(), DurNs: d.Nanoseconds()})
	} else {
		r.e.DroppedSpans++
	}
}

// Since stamps station s from start to now.
func (r *Req) Since(s Station, start time.Time) {
	if r == nil {
		return
	}
	r.Stamp(s, start, time.Since(start))
}

// AddBuild stamps one tree build: wall onto Build (on the timeline when
// start is non-zero — a whole-application step's build passes the zero
// start and wall, since it sits inside the caller's own Steps span) and
// the build's core phases, m.Timing, onto Bounds, Insert and Moments.
func (r *Req) AddBuild(start time.Time, wall time.Duration, m *core.Metrics) {
	if r == nil {
		return
	}
	r.Stamp(Build, start, wall)
	r.Stamp(Bounds, time.Time{}, m.Timing.Bounds)
	r.Stamp(Insert, time.Time{}, m.Timing.Insert)
	r.Stamp(Moments, time.Time{}, m.Timing.Moments)
}

// Totals snapshots the request's station totals and its elapsed time:
// the final duration once it finished, the time since its start while
// in flight. Both are zero on a nil handle.
func (r *Req) Totals() (Totals, time.Duration) {
	if r == nil {
		return Totals{}, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.e.DurNs > 0 {
		return r.e.Totals, time.Duration(r.e.DurNs)
	}
	return r.e.Totals, time.Since(r.start)
}

// Finish completes the request with its HTTP outcome and publishes it
// to the flight recorder. Exactly once per Req; later stamps are lost.
func (r *Req) Finish(status int, bytes int64) { r.FinishAt(status, bytes, time.Now()) }

// FinishAt is Finish with an explicit end time (deterministic tests).
func (r *Req) FinishAt(status int, bytes int64, end time.Time) {
	if r == nil {
		return
	}
	dur := max(end.Sub(r.start), 0)
	r.mu.Lock()
	r.e.Status = status
	r.e.Bytes = bytes
	r.e.DurNs = dur.Nanoseconds()
	queue := time.Duration(r.e.Totals[Queue])
	r.mu.Unlock()
	r.rec.record(r, dur, queue)
}

// ctxKey is the context key for the request's *Req.
type ctxKey struct{}

// NewContext returns ctx carrying rq. A nil rq returns ctx unchanged,
// so a build with no request behind it threads no value at all.
func NewContext(ctx context.Context, rq *Req) context.Context {
	if rq == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, rq)
}

// FromContext recalls the request handle, nil when none is present.
// This is the per-hook cost of a build with no request behind it: one
// context lookup that misses immediately.
func FromContext(ctx context.Context) *Req {
	rq, _ := ctx.Value(ctxKey{}).(*Req)
	return rq
}

// ParseTraceparent extracts the trace-id from a W3C traceparent header
// value (version-format "00-<32 hex trace-id>-<16 hex parent-id>-<2 hex
// flags>"). It reports false for malformed values — every field must be
// lowercase hex — and for an all-zero trace-id or parent-id, which the
// spec reserves as invalid: such a header is invalid as a whole.
func ParseTraceparent(v string) (string, bool) {
	// 2 + 1 + 32 + 1 + 16 + 1 + 2
	if len(v) != 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return "", false
	}
	if v[0] != '0' || v[1] != '0' { // only version 00 is defined
		return "", false
	}
	for i := 3; i < len(v); i++ {
		if c := v[i]; i != 35 && i != 52 && !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return "", false
		}
	}
	const zero = "00000000000000000000000000000000"
	if v[3:35] == zero || v[36:52] == zero[:16] {
		return "", false
	}
	return v[3:35], true
}

// MintID generates a fresh 32-hex-digit request ID (the shape of a
// traceparent trace-id, so minted and inherited IDs are uniform). Neither
// half is ever all zero, so either is also a valid parent-id
// (Req.Traceparent): one bit of each is set.
func MintID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// recognizable constant rather than crash the serving path.
		return "0000000000000bad0000000000000bad"
	}
	b[7] |= 1
	b[15] |= 1
	return hex.EncodeToString(b[:])
}
