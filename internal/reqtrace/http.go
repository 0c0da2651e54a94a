// JSON exposition for the flight recorder: /debug/requests (the ring,
// newest first), /debug/requests/slow (top-K by duration), and
// /debug/requests/<id> (one request's full timeline). Rendering is a
// pure function of the recorded requests — struct fields in fixed
// order, spans in stamp order with offsets relative to the request
// start, MarshalIndent — so identical recordings render identical
// bytes (pinned by the golden test).
package reqtrace

import (
	"encoding/json"
	"net/http"
	"strings"
)

// Entry is the rendered form of one request: the /debug/requests/<id>
// document, and how tests read a handle's accumulators.
type Entry struct {
	ID     string `json:"id"`
	Route  string `json:"route"`
	Seq    uint64 `json:"seq"`
	Status int    `json:"status"`
	Bytes  int64  `json:"bytes"`
	// StartUnixNs anchors the timeline in wall-clock time; span offsets
	// are relative to it.
	StartUnixNs int64 `json:"start_unix_ns"`
	DurNs       int64 `json:"dur_ns"`
	// Totals is the time per station, exact even when the span list
	// saturated.
	Totals Totals `json:"totals_ns"`
	Spans  []Span `json:"spans,omitempty"`
	// DroppedSpans counts spans lost to the per-request cap.
	DroppedSpans int64 `json:"dropped_spans,omitempty"`
}

// Entry snapshots the request; the zero Entry on a nil handle.
func (r *Req) Entry() Entry {
	if r == nil {
		return Entry{}
	}
	r.mu.Lock()
	out := r.e
	out.Spans = append([]Span(nil), r.e.Spans...)
	r.mu.Unlock()
	return out
}

// ringDoc is the /debug/requests (and /slow) response envelope.
type ringDoc struct {
	Capacity int `json:"capacity"`
	Count    int `json:"count"`
	// SlowThresholdMs/SlowTotal render only on /debug/requests/slow.
	SlowThresholdMs float64 `json:"slow_threshold_ms,omitempty"`
	SlowTotal       int64   `json:"slow_total,omitempty"`
	Requests        []Entry `json:"requests"`
}

func renderList(reqs []*Req) []Entry {
	out := make([]Entry, len(reqs))
	for i, r := range reqs {
		out[i] = r.Entry()
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(out, '\n'))
}

// WriteError answers with the JSON error document every partree service
// shares: {"error": msg} plus the request ID, read back from the
// X-Request-Id header the request envelope set before the handler ran
// (absent when no envelope wraps the route), so a 503 in a client log
// correlates with the daemon's access log and admission counters.
func WriteError(w http.ResponseWriter, code int, msg string) {
	doc := map[string]string{"error": msg}
	if id := w.Header().Get("X-Request-Id"); id != "" {
		doc["request_id"] = id
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(doc)
}

// Mount registers the /debug/requests handlers on mux.
func (rec *Recorder) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/debug/requests", rec.handleRequests)
	mux.HandleFunc("/debug/requests/slow", rec.handleSlow)
	mux.HandleFunc("/debug/requests/", rec.handleByID)
}

func (rec *Recorder) handleRequests(w http.ResponseWriter, _ *http.Request) {
	reqs := rec.Snapshot()
	writeJSON(w, http.StatusOK, ringDoc{
		Capacity: ringCap,
		Count:    len(reqs),
		Requests: renderList(reqs),
	})
}

func (rec *Recorder) handleSlow(w http.ResponseWriter, _ *http.Request) {
	reqs := rec.Slow()
	writeJSON(w, http.StatusOK, ringDoc{
		Capacity:        slowK,
		Count:           len(reqs),
		SlowThresholdMs: float64(slowThreshold.Nanoseconds()) / 1e6,
		SlowTotal:       rec.SlowTotal(),
		Requests:        renderList(reqs),
	})
}

func (rec *Recorder) handleByID(w http.ResponseWriter, req *http.Request) {
	id := strings.TrimPrefix(req.URL.Path, "/debug/requests/")
	if id == "" || strings.Contains(id, "/") {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "not found"})
		return
	}
	r := rec.Lookup(id)
	if r == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown request id " + id})
		return
	}
	writeJSON(w, http.StatusOK, r.Entry())
}
