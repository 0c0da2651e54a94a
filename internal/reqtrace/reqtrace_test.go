package reqtrace_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/reqtrace"
)

// epoch anchors every deterministic timeline; the golden files bake in
// its UnixNano, so it must never change.
var epoch = time.Unix(1700000000, 0)

func TestParseTraceparent(t *testing.T) {
	const valid = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		in   string
		id   string
		want bool
	}{
		{valid, "4bf92f3577b34da6a3ce929d0e0e4736", true},
		{"", "", false},
		{valid[:54], "", false},       // truncated
		{valid + "x", "", false},      // too long
		{"01" + valid[2:], "", false}, // unknown version
		{"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "", false},                                // bad separator
		{"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", "", false},                                // uppercase hex
		{"00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01", "", false},                                // non-hex digit
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", "", false},                                // reserved all-zero
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-zzzzzzzzzzzzzzzz-zz", "", false},                                // non-hex parent-id and flags
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", "", false},                                // reserved all-zero parent-id
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01", "", false},                                // uppercase parent-id
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0G", "", false},                                // non-hex flags
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", "4bf92f3577b34da6a3ce929d0e0e4736", true}, // unsampled
	}
	for _, c := range cases {
		id, ok := reqtrace.ParseTraceparent(c.in)
		if ok != c.want || id != c.id {
			t.Errorf("ParseTraceparent(%q) = (%q, %v), want (%q, %v)", c.in, id, ok, c.id, c.want)
		}
	}
}

// FuzzParseTraceparent: no header value panics the parser; an accepted
// one yields 32 lowercase hex digits, not all zero; and the traceparent a
// request under that ID sends on parses back to the same ID.
func FuzzParseTraceparent(f *testing.F) {
	for _, v := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-zzzzzzzzzzzzzzzz-zz",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-00000000000000000000000000000001-0000000000000001-00",
		"", "00-", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	} {
		f.Add(v)
	}
	rec := reqtrace.NewRecorder()
	f.Fuzz(func(t *testing.T, v string) {
		id, ok := reqtrace.ParseTraceparent(v)
		if !ok {
			if id != "" {
				t.Fatalf("rejected %q but returned %q", v, id)
			}
			return
		}
		if len(id) != 32 || strings.Trim(id, "0123456789abcdef") != "" || strings.Trim(id, "0") == "" {
			t.Fatalf("accepted %q as trace-id %q", v, id)
		}
		rq := rec.Start(id, "/fuzz")
		defer rq.Finish(200, 0)
		if back, ok := reqtrace.ParseTraceparent(rq.Traceparent()); !ok || back != id {
			t.Fatalf("ID %q sends on %q, which parses as (%q, %v)", id, rq.Traceparent(), back, ok)
		}
	})
}

func TestMintID(t *testing.T) {
	a, b := reqtrace.MintID(), reqtrace.MintID()
	for _, id := range []string{a, b} {
		if _, ok := reqtrace.ParseTraceparent("00-" + id + "-00f067aa0ba902b7-01"); !ok {
			t.Errorf("minted ID %q is not a valid traceparent trace-id", id)
		}
	}
	if a == b {
		t.Errorf("two minted IDs collide: %q", a)
	}
}

// buildMetrics is the slice of a build's core.Metrics a request stamp
// reads: the phase breakdown.
func buildMetrics(bounds, insert, moments time.Duration) *core.Metrics {
	return &core.Metrics{Timing: core.Timing{Bounds: bounds, Insert: insert, Moments: moments}}
}

// TestNilHandleNoOp pins the handle a build with no request behind it
// carries: every method on a nil *Req is callable and inert, and a
// context threads no value for it.
func TestNilHandleNoOp(t *testing.T) {
	var rq *reqtrace.Req
	rq.Since(reqtrace.Queue, time.Now())
	rq.Stamp(reqtrace.Read, epoch, time.Millisecond)
	rq.AddBuild(epoch, time.Millisecond, buildMetrics(time.Millisecond, time.Millisecond, time.Millisecond))
	rq.Finish(200, 1)
	if tot, elapsed := rq.Totals(); tot != (reqtrace.Totals{}) || elapsed != 0 {
		t.Errorf("nil Req totals = %v, elapsed %v; want zeros", tot, elapsed)
	}
	if e := rq.Entry(); e.ID != "" || e.Route != "" || e.Seq != 0 || e.DurNs != 0 || e.Spans != nil {
		t.Errorf("nil Req entry = %+v, want the zero Entry", e)
	}

	ctx := reqtrace.NewContext(context.Background(), nil)
	if ctx != context.Background() {
		t.Error("NewContext(nil) wrapped the context")
	}
	if reqtrace.FromContext(ctx) != nil {
		t.Error("FromContext on an empty context returned a Req")
	}
}

func TestContextRoundTrip(t *testing.T) {
	rec := reqtrace.NewRecorder()
	rq := rec.StartAt("aabbccddeeff00112233445566778899", "/v1/build", epoch)
	ctx := reqtrace.NewContext(context.Background(), rq)
	if got := reqtrace.FromContext(ctx); got != rq {
		t.Fatalf("FromContext returned %p, want %p", got, rq)
	}
	rq.FinishAt(200, 0, epoch.Add(time.Millisecond))
}

// TestReqTimeline drives one request through the deterministic
// constructors and checks its record: span offsets relative to the
// start, the station totals (the build's core phases among them), and
// the final duration.
func TestReqTimeline(t *testing.T) {
	rec := reqtrace.NewRecorder()
	rq := rec.StartAt("4bf92f3577b34da6a3ce929d0e0e4736", "/v1/build", epoch)
	if rq.Entry().ID != "4bf92f3577b34da6a3ce929d0e0e4736" || rq.Entry().Route != "/v1/build" {
		t.Fatalf("identity = (%q, %q)", rq.Entry().ID, rq.Entry().Route)
	}

	ms := func(n int) time.Time { return epoch.Add(time.Duration(n) * time.Millisecond) }
	rq.Stamp(reqtrace.Read, ms(0), time.Millisecond)
	rq.Stamp(reqtrace.Queue, ms(1), 2*time.Millisecond)
	rq.AddBuild(ms(3), 10*time.Millisecond, buildMetrics(6*time.Millisecond, 3*time.Millisecond, time.Millisecond))
	rq.Stamp(reqtrace.Queue, ms(13), time.Millisecond) // second slot wait accumulates
	rq.Stamp(reqtrace.Write, ms(14), time.Millisecond)

	// Spanless stamps (the zero start), as a whole-application step makes.
	rq.AddBuild(time.Time{}, 0, buildMetrics(time.Millisecond, 0, 0))

	var want reqtrace.Totals
	want[reqtrace.Read], want[reqtrace.Queue], want[reqtrace.Build], want[reqtrace.Write] = 1e6, 3e6, 10e6, 1e6
	want[reqtrace.Bounds], want[reqtrace.Insert], want[reqtrace.Moments] = 7e6, 3e6, 1e6
	got, elapsed := rq.Totals()
	if got != want {
		t.Errorf("totals = %v, want %v", got, want)
	}
	if elapsed <= 0 {
		t.Errorf("in-flight elapsed = %v, want > 0 (time since start)", elapsed)
	}

	spans := rq.Entry().Spans
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5 (the spanless build stamps none)", len(spans))
	}
	if s := (reqtrace.Span{Name: "build", StartNs: 3e6, DurNs: 10e6}); spans[2] != s {
		t.Errorf("span[2] = %+v, want %+v", spans[2], s)
	}

	rq.FinishAt(200, 4096, ms(15))
	if time.Duration(rq.Entry().DurNs) != 15*time.Millisecond {
		t.Errorf("duration = %v, want 15ms", time.Duration(rq.Entry().DurNs))
	}
	if _, elapsed := rq.Totals(); elapsed != 15*time.Millisecond {
		t.Errorf("finished elapsed = %v, want the recorded 15ms", elapsed)
	}
	if rq.Entry().Seq != 1 {
		t.Errorf("seq = %d, want 1 (first recorded request)", rq.Entry().Seq)
	}
	if got := rec.Lookup("4bf92f3577b34da6a3ce929d0e0e4736"); got != rq {
		t.Errorf("Lookup returned %p, want %p", got, rq)
	}
}

// TestTotalsJSON pins the rendered totals — one object keyed by station
// name, in station order — and that it reads back.
func TestTotalsJSON(t *testing.T) {
	var tot reqtrace.Totals
	for s := range tot {
		tot[s] = int64(s+1) * 1000
	}
	b, err := json.Marshal(tot)
	const want = `{"read":1000,"queue":2000,"build":3000,"steps":4000,"write":5000,"bounds":6000,"insert":7000,"moments":8000}`
	if err != nil || string(b) != want {
		t.Fatalf("totals render as %s (%v), want %s", b, err, want)
	}
	var back reqtrace.Totals
	if err := json.Unmarshal(b, &back); err != nil || back != tot {
		t.Errorf("%s reads back as %v (%v)", b, back, err)
	}
}

// TestSpanListCap stamps past the per-request span cap: the list stops
// growing, the queue total stays exact, and negative durations clamp to
// zero.
func TestSpanListCap(t *testing.T) {
	rec := reqtrace.NewRecorder()
	rq := rec.StartAt("00000000000000000000000000000001", "/v1/session", epoch)
	const stamped = 600 // past the 512-span cap
	for i := 0; i < stamped; i++ {
		rq.Stamp(reqtrace.Queue, epoch.Add(time.Duration(i)*time.Microsecond), time.Microsecond)
	}
	rq.Stamp(reqtrace.Write, epoch.Add(time.Second), -time.Second)
	if n := len(rq.Entry().Spans); n >= stamped {
		t.Fatalf("span list grew to %d; the cap never engaged", n)
	}
	if e := rq.Entry(); e.DroppedSpans != stamped+1-int64(len(e.Spans)) {
		t.Errorf("dropped %d spans, kept %d, of %d stamped", e.DroppedSpans, len(e.Spans), stamped+1)
	}
	tot, _ := rq.Totals()
	if tot[reqtrace.Queue] != (stamped * time.Microsecond).Nanoseconds() {
		t.Errorf("queue total = %d ns, want exact %v despite dropped spans", tot[reqtrace.Queue], stamped*time.Microsecond)
	}
	if tot[reqtrace.Write] != 0 {
		t.Errorf("a negative stamp added %d ns, want 0", tot[reqtrace.Write])
	}
	rq.FinishAt(200, 0, epoch.Add(time.Second))
}

// finishOne records one request with the given duration and returns it.
func finishOne(rec *reqtrace.Recorder, id string, d time.Duration) *reqtrace.Req {
	rq := rec.StartAt(id, "/v1/build", epoch)
	rq.FinishAt(200, 1, epoch.Add(d))
	return rq
}

func TestRingWrapAndSnapshot(t *testing.T) {
	rec := reqtrace.NewRecorder()
	const n = reqtrace.RingCap + 6
	for i := 1; i <= n; i++ {
		finishOne(rec, fmt.Sprintf("%032d", i), time.Duration(i)*time.Microsecond)
	}
	snap := rec.Snapshot()
	if len(snap) != reqtrace.RingCap {
		t.Fatalf("snapshot holds %d requests, want the ring's %d", len(snap), reqtrace.RingCap)
	}
	for i, r := range snap {
		if want := uint64(n - i); r.Entry().Seq != want {
			t.Errorf("snapshot[%d].Seq = %d, want %d (newest first)", i, r.Entry().Seq, want)
		}
	}
	// The wrapped-away requests are gone; the retained ones resolve.
	if rec.Lookup(fmt.Sprintf("%032d", 3)) != nil {
		t.Error("Lookup found a request the ring wrapped away")
	}
	if r := rec.Lookup(fmt.Sprintf("%032d", n-1)); r == nil || r.Entry().Seq != n-1 {
		t.Errorf("Lookup(%d) = %v", n-1, r)
	}
	// Duplicate IDs: the newest completion wins.
	finishOne(rec, "duplicate-id", time.Millisecond)
	dup2 := finishOne(rec, "duplicate-id", 2*time.Millisecond)
	if got := rec.Lookup("duplicate-id"); got != dup2 {
		t.Errorf("Lookup(duplicate) returned seq %d, want the newest %d", got.Entry().Seq, dup2.Entry().Seq)
	}
}

// TestSlowListThresholdAndEviction publishes one request under the slow
// threshold and SlowK+1 over it, the fastest of them first: every
// crossing counts, and the list keeps the slowest SlowK, slowest first.
func TestSlowListThresholdAndEviction(t *testing.T) {
	rec := reqtrace.NewRecorder()
	finishOne(rec, "00000000000000000000000000000aaa", reqtrace.SlowThreshold-time.Millisecond) // under threshold
	id := func(k int) string { return fmt.Sprintf("%032d", k) }
	// Request k lasts threshold+k ms; k = 1 arrives first, then the
	// rest in descending order, so k = 1 is evicted by the last.
	finishOne(rec, id(1), reqtrace.SlowThreshold+time.Millisecond)
	for k := reqtrace.SlowK + 1; k >= 2; k-- {
		finishOne(rec, id(k), reqtrace.SlowThreshold+time.Duration(k)*time.Millisecond)
	}
	if got := rec.SlowTotal(); got != reqtrace.SlowK+1 {
		t.Errorf("SlowTotal = %d, want %d (every crossing counts, evicted or not)", got, reqtrace.SlowK+1)
	}
	slow := rec.Slow()
	if len(slow) != reqtrace.SlowK {
		t.Fatalf("slow list holds %d, want top-K %d", len(slow), reqtrace.SlowK)
	}
	for i, r := range slow {
		if want := id(reqtrace.SlowK + 1 - i); r.Entry().ID != want {
			t.Errorf("slow[%d] = %s, want %s (slowest first)", i, r.Entry().ID, want)
		}
	}
}

// TestLookupOutlivesRingViaSlowList wraps a slow request out of the
// ring and checks Lookup still resolves it from the slow list — the
// requests most worth debugging stay addressable longest.
func TestLookupOutlivesRingViaSlowList(t *testing.T) {
	rec := reqtrace.NewRecorder()
	slow := finishOne(rec, "00000000000000000000000000005105", reqtrace.SlowThreshold)
	for i := 1; i <= reqtrace.RingCap; i++ {
		finishOne(rec, fmt.Sprintf("%032d", i), time.Millisecond)
	}
	for _, r := range rec.Snapshot() {
		if r == slow {
			t.Fatal("test setup: the slow request should have wrapped out of the ring")
		}
	}
	if got := rec.Lookup(slow.Entry().ID); got != slow {
		t.Errorf("Lookup(%s) = %v, want the slow-list entry", slow.Entry().ID, got)
	}
}

func TestInFlightGauge(t *testing.T) {
	rec := reqtrace.NewRecorder()
	a := rec.Start("00000000000000000000000000000001", "/v1/build")
	b := rec.Start("00000000000000000000000000000002", "/v1/build")
	if got := rec.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	a.Finish(200, 0)
	b.Finish(500, 0)
	if got := rec.InFlight(); got != 0 {
		t.Fatalf("InFlight after finishes = %d, want 0", got)
	}
}

// TestConcurrentWritersAndReaders is the race-detector workout: many
// request lifecycles (spans from two goroutines each, as handler and
// runner stamp concurrently) against readers of every snapshot surface.
// Every request lasts the slow threshold, so each one also takes the
// slow list's lock. Invariants checked after the storm: nothing in
// flight, sequence numbers dense and unique, ring bounded at capacity.
func TestConcurrentWritersAndReaders(t *testing.T) {
	rec := reqtrace.NewRecorder()
	const writers, perWriter = 8, 50

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, r := range rec.Snapshot() {
					r.Entry()
					r.Totals()
				}
				rec.Slow()
				rec.Lookup("00000000000000000000000000000007")
				rec.InFlight()
			}
		}()
	}

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				rq := rec.StartAt(fmt.Sprintf("%031d%d", i, w), "/v1/build", epoch)
				var inner sync.WaitGroup
				inner.Add(1)
				go func() { // the runner-goroutine stamping path
					defer inner.Done()
					rq.AddBuild(epoch, time.Millisecond, buildMetrics(time.Microsecond, time.Microsecond, time.Microsecond))
				}()
				rq.Stamp(reqtrace.Queue, epoch, time.Microsecond)
				rq.Totals()
				inner.Wait()
				rq.FinishAt(200, 128, epoch.Add(reqtrace.SlowThreshold))
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	if got := rec.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after every request finished", got)
	}
	if got := rec.SlowTotal(); got != writers*perWriter {
		t.Errorf("SlowTotal = %d, want %d (every request is slow)", got, writers*perWriter)
	}
	snap := rec.Snapshot()
	if len(snap) != reqtrace.RingCap {
		t.Fatalf("snapshot holds %d, want the full ring %d", len(snap), reqtrace.RingCap)
	}
	seen := map[uint64]bool{}
	for _, r := range snap {
		if seen[r.Entry().Seq] || r.Entry().Seq == 0 || r.Entry().Seq > writers*perWriter {
			t.Errorf("bad sequence number %d in snapshot", r.Entry().Seq)
		}
		seen[r.Entry().Seq] = true
	}
}
