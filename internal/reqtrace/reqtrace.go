// Package reqtrace is the request-scoped companion to internal/trace:
// where trace attributes one build's time to phases per processor,
// reqtrace attributes one *request*'s time to the stations it passed
// through on the serving path — HTTP read, admission-queue wait, the
// build itself (with the core phase breakdown bridged in), response
// write. Every partreed and partree-router request gets a request ID (the
// W3C traceparent trace-id when the caller sent one — a router's shard
// calls do — minted otherwise; envelope.go), a *Req handle
// travels in the context.Context from the HTTP handler through
// internal/engine and internal/runner down to the core build, and each
// layer stamps its span onto the handle as it goes.
//
// The design rules mirror internal/trace:
//
//   - Disabled is a nil-handle no-op. Every method on *Req is safe on a
//     nil receiver and returns immediately, so a run with no request
//     envelope (the CLI's runner.Run) pays one pointer comparison per
//     hook and allocates nothing (pinned in overhead_test.go).
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
	"sync"
	"time"

	"partree/internal/core"
)

// maxSpans bounds one request's span list; a streaming session that
// steps forever must not grow its flight-recorder entry without bound.
// Past it, spans are dropped (counted) while the queue/build/phase
// accumulators stay exact.
const maxSpans = 512

// Span is one named interval on a request's timeline. StartNs is
// relative to the request's start, so rendered timelines are stable
// across runs that do the same work.
type Span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// Phases is the core build-phase breakdown accumulated over every build
// the request performed (one for /v1/build, one per step for a
// session). It is fed from core.Metrics.Timing, which every build
// maintains whether or not per-processor tracing ran.
type Phases struct {
	BoundsNs  int64 `json:"bounds_ns"`
	InsertNs  int64 `json:"insert_ns"`
	MomentsNs int64 `json:"moments_ns"`
}

// Req is one request's span context. Handlers create it via
// Recorder.Start, thread it with NewContext, and lower layers recall it
// with FromContext. A nil *Req is the disabled mode: every method is a
// no-op.
//
// One Req is owned by one request's serving path; spans may be stamped
// from the goroutines that path runs through (handler, runner worker),
// serialized by mu. Readers (the /debug handlers) lock the same mutex,
// but only for requests already published to the flight recorder.
type Req struct {
	rec   *Recorder
	start time.Time

	// e accumulates the request's Entry in place: spans, the "queue" and
	// "build" span sums, phases, and — set by Finish — status, bytes and
	// duration (0 while in flight).
	// Seq is assigned when the recorder publishes the finished Req.
	mu sync.Mutex
	e  Entry
}

// SpanSince stamps a span from start to now. The zero start time is
// ignored, so callers can pair it with a guarded time.Now() capture:
//
//	var t0 time.Time
//	if rq != nil { t0 = time.Now() }
//	...wait...
//	rq.SpanSince("queue", t0)
func (r *Req) SpanSince(name string, start time.Time) {
	if r == nil || start.IsZero() {
		return
	}
	r.SpanAt(name, start, time.Now())
}

// SpanAt stamps a span covering [start, end). Spans named "queue" and
// "build" additionally accumulate into the queue-wait and build totals
// Breakdown reports, whether or not the span list is full.
func (r *Req) SpanAt(name string, start, end time.Time) {
	if r == nil || start.IsZero() {
		return
	}
	dur := end.Sub(start).Nanoseconds()
	if dur < 0 {
		dur = 0
	}
	r.mu.Lock()
	switch name {
	case "queue":
		r.e.QueueNs += dur
	case "build":
		r.e.BuildWallNs += dur
	}
	if len(r.e.Spans) < maxSpans {
		r.e.Spans = append(r.e.Spans, Span{Name: name, StartNs: start.Sub(r.start).Nanoseconds(), DurNs: dur})
	} else {
		r.e.DroppedSpans++
	}
	r.mu.Unlock()
}

// AddBuild stamps one tree build onto the request: a "build" span of
// wall starting at start (the zero start means no span, as in SpanAt —
// a whole-application step's build sits inside the caller's own "steps"
// span), the core phase breakdown (m.Timing, which every build
// maintains) accumulated into the request, and the per-processor trace
// summary, when the builder traced, attached — latest traced build wins,
// for a session the last step's.
func (r *Req) AddBuild(start time.Time, wall time.Duration, m *core.Metrics) {
	if r == nil {
		return
	}
	r.SpanAt("build", start, start.Add(wall))
	r.mu.Lock()
	r.e.Phases.BoundsNs += m.Timing.Bounds.Nanoseconds()
	r.e.Phases.InsertNs += m.Timing.Insert.Nanoseconds()
	r.e.Phases.MomentsNs += m.Timing.Moments.Nanoseconds()
	r.mu.Unlock()
}

// Breakdown reports the request's station totals so far: admission
// queue wait, tree-build time (bounds + insert phases), moments time,
// and total elapsed (final duration once finished, time since start
// while in flight).
func (r *Req) Breakdown() (queue, build, moments, total time.Duration) {
	if r == nil {
		return 0, 0, 0, 0
	}
	r.mu.Lock()
	queue = time.Duration(r.e.QueueNs)
	build = time.Duration(r.e.Phases.BoundsNs + r.e.Phases.InsertNs)
	moments = time.Duration(r.e.Phases.MomentsNs)
	if r.e.DurNs > 0 {
		total = time.Duration(r.e.DurNs)
	} else {
		total = time.Since(r.start)
	}
	r.mu.Unlock()
	return queue, build, moments, total
}

// Finish completes the request with its HTTP outcome and publishes it
// to the flight recorder. Exactly once per Req; later spans are lost.
func (r *Req) Finish(status int, bytes int64) {
	if r == nil {
		return
	}
	r.FinishAt(status, bytes, time.Now())
}

// FinishAt is Finish with an explicit end time (deterministic tests).
func (r *Req) FinishAt(status int, bytes int64, end time.Time) {
	if r == nil {
		return
	}
	dur := end.Sub(r.start)
	if dur < 0 {
		dur = 0
	}
	r.mu.Lock()
	r.e.Status = status
	r.e.Bytes = bytes
	r.e.DurNs = dur.Nanoseconds()
	queue := time.Duration(r.e.QueueNs)
	r.mu.Unlock()
	if r.rec != nil {
		r.rec.record(r, dur, queue)
	}
}

// ctxKey is the context key for the request's *Req.
type ctxKey struct{}

// NewContext returns ctx carrying rq. A nil rq returns ctx unchanged,
// so disabled mode threads no value at all.
func NewContext(ctx context.Context, rq *Req) context.Context {
	if rq == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, rq)
}

// FromContext recalls the request handle, nil when none is present.
// This is the per-hook cost of disabled mode: one context lookup that
// misses immediately (partreed threads no value when the recorder is
// off).
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
