package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The benchmark's own span recorder. Spans wrap the calls this program
// makes into each layer; nothing inside the program under test gains a
// span. Everything is held in memory and written as Chrome trace_event
// JSON once the run ends. Every method tolerates a nil receiver, so the
// untraced pass runs the same code with tracing compiled down to a nil
// check.

type span struct {
	name       string
	start, end int64 // ns since the tracer started
	parent     int32 // index within the same track, -1 for a root span
	op         int64 // the operation (round, step, request) it belongs to
}

type counterEvent struct {
	name  string
	at    int64
	op    int64
	value float64
}

// track is one goroutine's span list; tracks never share state, so
// recording needs no lock.
type track struct {
	tr       *tracer
	id       int
	name     string
	spans    []span
	counters []counterEvent
	stack    []int32
	op       int64
}

type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	tracks []*track
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrack registers a track for one goroutine.
func (t *tracer) newTrack(name string) *track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := &track{tr: t, id: len(t.tracks), name: name}
	t.tracks = append(t.tracks, k)
	return k
}

// setOp names the operation the following spans belong to.
func (k *track) setOp(op int64) {
	if k != nil {
		k.op = op
	}
}

// begin opens a span under the innermost open span of this track.
func (k *track) begin(name string) int32 {
	if k == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(k.stack); n > 0 {
		parent = k.stack[n-1]
	}
	i := int32(len(k.spans))
	k.spans = append(k.spans, span{name: name, parent: parent, op: k.op,
		start: time.Since(k.tr.t0).Nanoseconds()})
	k.stack = append(k.stack, i)
	return i
}

// end closes span i and everything opened inside it.
func (k *track) end(i int32) {
	if k == nil || i < 0 {
		return
	}
	now := time.Since(k.tr.t0).Nanoseconds()
	for n := len(k.stack); n > 0; n = len(k.stack) {
		top := k.stack[n-1]
		k.stack = k.stack[:n-1]
		k.spans[top].end = now
		if top == i {
			return
		}
	}
}

// add records a finished span from timestamps taken elsewhere (the HTTP
// client's send/wait/read instants) under the innermost open span.
func (k *track) add(name string, start, end time.Time) {
	if k == nil || start.IsZero() || end.Before(start) {
		return
	}
	parent := int32(-1)
	if n := len(k.stack); n > 0 {
		parent = k.stack[n-1]
	}
	k.spans = append(k.spans, span{name: name, parent: parent, op: k.op,
		start: start.Sub(k.tr.t0).Nanoseconds(), end: end.Sub(k.tr.t0).Nanoseconds()})
}

// count records a value the layer reported (a server-side timing, a lock
// count) at the current instant.
func (k *track) count(name string, v float64) {
	if k == nil {
		return
	}
	k.counters = append(k.counters, counterEvent{name: name, op: k.op,
		at: time.Since(k.tr.t0).Nanoseconds(), value: v})
}

// spanCount is the number of spans recorded so far.
func (t *tracer) spanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, k := range t.tracks {
		n += len(k.spans)
	}
	return n
}

// spanCostNs measures what one begin/end pair costs on this host, so the
// traced pass can report its own overhead as spans × cost ÷ elapsed.
func spanCostNs() float64 {
	const n = 20000
	k := newTracer().newTrack("calibrate")
	k.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		k.end(k.begin("calibrate"))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// childTime returns, per span, the time its direct children cover.
func (k *track) childTime() []int64 {
	child := make([]int64, len(k.spans))
	for _, s := range k.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	return child
}

// selfStat aggregates one span name.
type selfStat struct {
	n           int
	total, self int64
}

// selfTimes returns, per span name, the count, total duration and self
// time: a span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]selfStat {
	out := map[string]selfStat{}
	if t == nil {
		return out
	}
	for _, k := range t.tracks {
		child := k.childTime()
		for i, s := range k.spans {
			st := out[s.name]
			st.n++
			st.total += s.end - s.start
			st.self += s.end - s.start - child[i]
			out[s.name] = st
		}
	}
	return out
}

// printSelfTimes renders the per-layer self-time table of a traced run.
func (t *tracer) printSelfTimes(w *os.File) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].self > st[names[j]].self })
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", n, s.n, float64(s.total)/1e6, float64(s.self)/1e6)
	}
}

// write emits the spans as Chrome trace_event JSON (load in
// chrome://tracing or ui.perfetto.dev). Each span carries its operation,
// its parent's name and its self time.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("{\"traceEvents\":[\n")
	first := true
	sep := func() {
		if !first {
			w.WriteString(",\n")
		}
		first = false
	}
	us := func(ns int64) string { return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64) }
	for _, k := range t.tracks {
		sep()
		fmt.Fprintf(w, `{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`, k.id, k.name)
		child := k.childTime()
		for i, s := range k.spans {
			parent := ""
			if s.parent >= 0 {
				parent = k.spans[s.parent].name
			}
			sep()
			fmt.Fprintf(w, `{"ph":"X","pid":1,"tid":%d,"name":%q,"ts":%s,"dur":%s,"args":{"op":%d,"parent":%q,"self_us":%s}}`,
				k.id, s.name, us(s.start), us(s.end-s.start), s.op, parent, us(s.end-s.start-child[i]))
		}
		for _, c := range k.counters {
			sep()
			fmt.Fprintf(w, `{"ph":"C","pid":1,"tid":%d,"name":%q,"ts":%s,"args":{"value":%s,"op":%d}}`,
				k.id, c.name, us(c.at), strconv.FormatFloat(c.value, 'g', -1, 64), c.op)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
