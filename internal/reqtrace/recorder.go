// The flight recorder: a fixed-capacity ring of completed requests, a
// threshold-gated top-K of the slowest, and the partree_req_* metric
// families. The ring write (the per-request hot path) is one atomic
// sequence increment plus one atomic pointer store — no lock — so a
// request burst never serializes on its own observability. The slow
// list and the per-route max exemplar are off the common path (only
// requests past the threshold, only new maxima) and take a small mutex.
package reqtrace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"partree/internal/obs"
)

// The recorder's fixed sizing.
const (
	// ringCap is how many completed requests /debug/requests can look
	// back on.
	ringCap = 256
	// slowThreshold gates the slow list: a request at least this slow
	// is counted and retained in /debug/requests/slow.
	slowThreshold = 250 * time.Millisecond
	// slowK bounds the slow list; past it the fastest slow request is
	// evicted.
	slowK = 16
)

// Recorder owns the flight-recorder state for one daemon. Every
// partreed and partree-router request is recorded.
type Recorder struct {
	ring [ringCap]atomic.Pointer[Req]
	seq  atomic.Uint64

	inFlight atomic.Int64

	slowMu sync.Mutex
	slow   []*Req

	// maxMu guards the per-route duration maximum — the "poor man's
	// exemplar": the request ID behind the current top of the duration
	// histogram, replaced (not accumulated) when a slower request for
	// the route finishes.
	maxMu sync.Mutex
	max   map[string]maxEntry

	durSeconds   *obs.Vec[*obs.Histogram]
	queueSeconds *obs.Histogram
	slowTotal    *obs.Counter
}

type maxEntry struct {
	id    string
	durNs int64
}

// NewRecorder creates a flight recorder. The metric instruments are
// created eagerly (like the engine's step histogram) so requests
// observe whether or not RegisterObs was called.
func NewRecorder() *Recorder {
	return &Recorder{
		max: map[string]maxEntry{},
		durSeconds: obs.NewHistogramVec("partree_req_duration_seconds",
			"Request duration through the serving path, by route.",
			obs.ExpBuckets(1e-4, 2, 20), "route"),
		queueSeconds: obs.NewHistogram("partree_req_queue_wait_seconds",
			"Time requests spent waiting for an engine build slot.",
			obs.ExpBuckets(1e-5, 2, 20)),
		slowTotal: obs.NewCounter("partree_req_slow_total", "Requests that crossed the slow threshold."),
	}
}

// Start opens a request.
func (rec *Recorder) Start(id, route string) *Req {
	return rec.StartAt(id, route, time.Now())
}

// StartAt is Start with an explicit start time (deterministic tests).
func (rec *Recorder) StartAt(id, route string, t time.Time) *Req {
	rec.inFlight.Add(1)
	return &Req{rec: rec, start: t, e: Entry{ID: id, Route: route, StartUnixNs: t.UnixNano()}}
}

// record publishes a finished request: ring (lock-free), histograms,
// slow list, max exemplar. Called exactly once per Req by FinishAt.
func (rec *Recorder) record(r *Req, dur, queue time.Duration) {
	rec.inFlight.Add(-1)
	// Sequence numbers start at 1; slot i of epoch e holds seq e·cap+i+1,
	// so the ring always contains the last ringCap finished requests and
	// renderers sort by seq to recover completion order.
	seq := rec.seq.Add(1)
	r.e.Seq = seq
	rec.ring[int((seq-1)%uint64(len(rec.ring)))].Store(r)

	rec.durSeconds.With(r.e.Route).Observe(dur.Seconds())
	rec.queueSeconds.Observe(queue.Seconds())

	rec.maxMu.Lock()
	if m := rec.max[r.e.Route]; dur.Nanoseconds() > m.durNs {
		rec.max[r.e.Route] = maxEntry{id: r.e.ID, durNs: dur.Nanoseconds()}
	}
	rec.maxMu.Unlock()

	if dur >= slowThreshold {
		rec.slowTotal.Inc()
		rec.slowMu.Lock()
		rec.slow = append(rec.slow, r)
		if len(rec.slow) > slowK {
			// Evict the fastest (oldest on ties): the list holds the
			// top-K by duration.
			min := 0
			for i := 1; i < len(rec.slow); i++ {
				if rec.slow[i].e.DurNs < rec.slow[min].e.DurNs {
					min = i
				}
			}
			rec.slow = append(rec.slow[:min], rec.slow[min+1:]...)
		}
		rec.slowMu.Unlock()
	}
}

// Snapshot returns the ring's completed requests, newest first.
func (rec *Recorder) Snapshot() []*Req {
	out := make([]*Req, 0, len(rec.ring))
	for i := range rec.ring {
		if r := rec.ring[i].Load(); r != nil {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].e.Seq > out[j].e.Seq })
	return out
}

// Slow returns the retained slowest requests, slowest first (newest
// first on ties).
func (rec *Recorder) Slow() []*Req {
	rec.slowMu.Lock()
	out := make([]*Req, len(rec.slow))
	copy(out, rec.slow)
	rec.slowMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].e.DurNs != out[j].e.DurNs {
			return out[i].e.DurNs > out[j].e.DurNs
		}
		return out[i].e.Seq > out[j].e.Seq
	})
	return out
}

// Lookup finds a completed request by ID — the ring first (newest
// match wins), then the slow list, which outlives ring wrap for the
// requests most worth debugging.
func (rec *Recorder) Lookup(id string) *Req {
	var best *Req
	for i := range rec.ring {
		if r := rec.ring[i].Load(); r != nil && r.e.ID == id {
			if best == nil || r.e.Seq > best.e.Seq {
				best = r
			}
		}
	}
	if best != nil {
		return best
	}
	rec.slowMu.Lock()
	defer rec.slowMu.Unlock()
	for _, r := range rec.slow {
		if r.e.ID == id && (best == nil || r.e.Seq > best.e.Seq) {
			best = r
		}
	}
	return best
}

// InFlight returns the number of started-but-unfinished requests.
func (rec *Recorder) InFlight() int64 { return rec.inFlight.Load() }

// SlowTotal returns the number of requests that crossed the slow threshold.
func (rec *Recorder) SlowTotal() int64 { return int64(rec.slowTotal.Value()) }

// RegisterObs attaches the partree_req_* families to reg:
//
//	partree_req_duration_seconds{route}            histogram
//	partree_req_queue_wait_seconds                 histogram
//	partree_req_in_flight                          gauge
//	partree_req_slow_total                         counter
//	partree_req_duration_max_seconds{route,request_id}  gauge (exemplar)
func (rec *Recorder) RegisterObs(reg *obs.Registry) error {
	return reg.Register(
		rec.durSeconds,
		rec.queueSeconds,
		obs.NewGaugeFunc("partree_req_in_flight",
			"Requests currently being served.",
			func() float64 { return float64(rec.inFlight.Load()) }),
		rec.slowTotal,
		maxCollector{rec: rec},
	)
}

// maxCollector renders the per-route duration maximum with the request
// ID as a label — the cheapest possible exemplar: the one request
// behind the histogram's current top, addressable in /debug/requests.
type maxCollector struct{ rec *Recorder }

func (c maxCollector) Collect(out []obs.Family) []obs.Family {
	c.rec.maxMu.Lock()
	routes := make([]string, 0, len(c.rec.max))
	for route := range c.rec.max {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	series := make([]obs.Series, 0, len(routes))
	for _, route := range routes {
		m := c.rec.max[route]
		series = append(series, obs.Series{
			Labels: []obs.Label{{Name: "request_id", Value: m.id}, {Name: "route", Value: route}},
			Value:  float64(m.durNs) / 1e9,
		})
	}
	c.rec.maxMu.Unlock()
	return append(out, obs.Family{
		Name:   "partree_req_duration_max_seconds",
		Help:   "Slowest request seen per route, with its request ID (exemplar).",
		Type:   obs.TypeGauge,
		Series: series,
	})
}
