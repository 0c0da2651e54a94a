package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"partree/internal/octree"
	"partree/internal/reqtrace"
	"partree/internal/runner"
)

// openSeeds are open records the daemon has met: what its session tests
// and the verify walk-through send, what loadgen sends under
// scripts/loadgen_smoke.sh, each service limit crossed, a retired field
// ("adaptive") and a misspelt one, and non-records.
var openSeeds = []string{
	`{"procs":2,"bodies":3000,"seed":1,"dt":0.005,"check":true}`,
	`{"procs":2,"bodies":3000,"seed":7,"dt":0.005,"check":true,"adaptive":true}`,
	`{"procs": 2, "bodies": 4096, "check": true}`,
	`{"procs":1,"bodies":500,"seed":1,"idle_timeout_ms":50}`,
	`{"procs":2,"bodies":256,"model":"disk","seed":42,"dt":0.01}`,
	`{"procs":2,"bodies":256,"seed":43}`,
	`{"bodies":2000000000}`, `{"bodies":64,"procs":100000}`, `{"bodies":64,"procs":65}`, `{"bodies":64,"leaf_cap":2147483648}`, `{"bodies":0}`, `{"bodies":64,"model":"cube"}`,
	`{"bodies":"many"}`, `{"bodies":64,"dt":1e999}`, `{`, ``, `null`, `[]`, `7`,
	`{"bodies":64,"modle":"disk"}`, `{"bodies":64,"Seed":3,"CHECK":true}`,
}

// stepSeeds are step records: the four the senders use, the empty one,
// a negative collapse, the retired client-motion record ("pos", refused
// as any undeclared field is), misspellings, a case-folded name, and
// non-records.
var stepSeeds = []string{
	`{"drift":true}`, `{"collapse":0.4}`, `{"rebuild":true}`, `{"close":true}`, `{}`,
	`{"collapse":-0.05}`,
	`{"pos":[[0,0,0],[1,2,3]]}`, `{"pos":[]}`, `{"pos":[[1,2]]}`, `{"pos":7}`,
	`{"pos":[[1e308,0,0],[-1e308,0,0]]}`,
	`{"drift":"yes"}`, `{`, ``, `null`,
	`{"drfit":true}`, `{"drift":true,"adaptive":true}`, `{"Drift":true}`,
}

// declares reports whether every key of doc's top-level object is a
// JSON name of one of v's fields, matched as encoding/json matches them
// (case-insensitively). A doc that is not an object declares nothing
// and reports true: there is no key to refuse.
func declares(doc string, v any) bool {
	var keys map[string]json.RawMessage
	if json.Unmarshal([]byte(doc), &keys) != nil {
		return true
	}
	typ := reflect.TypeOf(v)
	for k := range keys {
		known := false
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			known = known || strings.EqualFold(k, name)
		}
		if !known {
			return false
		}
	}
	return true
}

// FuzzDecodeSessionOpen: the open record's decoder never panics, what
// it accepts is inside the service limits with a model that parses and
// names no field the record does not declare, and an accepted record
// re-encodes to a record it accepts unchanged.
func FuzzDecodeSessionOpen(f *testing.F) {
	for _, s := range openSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		open, model, err := DecodeSessionOpen(json.NewDecoder(strings.NewReader(doc)))
		if err != nil {
			return
		}
		if !declares(doc, open) {
			t.Fatalf("accepted an open record with an undeclared field: %s", doc)
		}
		if open.Bodies < 1 || open.Bodies > runner.MaxServiceBodies ||
			open.Procs < 1 || open.Procs > min(octree.MaxArenas, runner.MaxServiceProcsPerCPU*runtime.GOMAXPROCS(0)) ||
			open.LeafCap < 1 || open.LeafCap > runner.MaxServiceLeafCap || open.Dt == 0 || open.Model == "" {
			t.Fatalf("accepted an open record outside the service limits: %+v", open)
		}
		enc, err := json.Marshal(open)
		if err != nil {
			t.Fatalf("an accepted open record does not encode: %v", err)
		}
		again, model2, err := DecodeSessionOpen(json.NewDecoder(bytes.NewReader(enc)))
		if err != nil || again != open || model2 != model {
			t.Fatalf("accepted %+v\nre-encoded as %s\nre-decodes to %+v, model %v→%v (%v)", open, enc, again, model, model2, err)
		}
	})
}

// TestSessionOpenProcsBound: a host with 17 or more CPUs passes 65
// processors through the per-CPU limit, and a Store has 64 arenas — the
// open record is refused by that bound too, before any builder exists.
func TestSessionOpenProcsBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(32))
	for procs, refused := range map[int]bool{64: false, 65: true} {
		doc := fmt.Sprintf(`{"bodies":64,"procs":%d}`, procs)
		_, _, err := DecodeSessionOpen(json.NewDecoder(strings.NewReader(doc)))
		if refused != (err != nil) || (refused && !strings.Contains(err.Error(), "limit 64")) {
			t.Errorf("procs %d: error %v, want refused=%t naming the limit 64", procs, err, refused)
		}
	}
}

// TestSessionOpenLeafCapBound: every leaf is allocated with room for
// leaf_cap body indices, so the open record holds it to the one-shot
// specs' limit — refused above, served at it.
func TestSessionOpenLeafCapBound(t *testing.T) {
	limit := strconv.Itoa(runner.MaxServiceLeafCap)
	for leafCap, refused := range map[int]bool{runner.MaxServiceLeafCap: false, runner.MaxServiceLeafCap + 1: true, 1 << 30: true} {
		doc := fmt.Sprintf(`{"bodies":64,"leaf_cap":%d}`, leafCap)
		open, _, err := DecodeSessionOpen(json.NewDecoder(strings.NewReader(doc)))
		if refused != (err != nil) || (refused && !strings.Contains(err.Error(), limit)) || (!refused && open.LeafCap != leafCap) {
			t.Errorf("leaf_cap %d: record %+v, error %v, want refused=%t naming the limit %s", leafCap, open, err, refused, limit)
		}
	}
}

// FuzzDecodeSessionStep: the step decoder never panics, keeps the clean
// end of stream recognisable, refuses every field the record does not
// declare and every negative collapse, and an accepted record
// round-trips.
func FuzzDecodeSessionStep(f *testing.F) {
	for _, s := range stepSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		step, err := DecodeSessionStep(json.NewDecoder(strings.NewReader(doc)))
		if err != nil {
			if strings.Trim(doc, " \t\r\n") == "" && !errors.Is(err, io.EOF) {
				t.Fatalf("empty stream: %v, want io.EOF", err)
			}
			return
		}
		if !declares(doc, step) {
			t.Fatalf("accepted a step record with an undeclared field: %s", doc)
		}
		if step.Collapse < 0 {
			t.Fatalf("accepted a negative collapse: %s", doc)
		}
		enc, err := json.Marshal(step)
		if err != nil {
			t.Fatalf("an accepted step record does not encode: %v", err)
		}
		again, err := DecodeSessionStep(json.NewDecoder(bytes.NewReader(enc)))
		enc2, _ := json.Marshal(again)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("accepted %+v\nre-encoded as %s\nre-decodes to %s (%v)", step, enc, enc2, err)
		}
	})
}

// TestSessionRecordBytes pins each server record's line — field names
// and order, as the parent's daemon wrote them — and that a client reads
// it back into the member its event names, and into nothing else.
func TestSessionRecordBytes(t *testing.T) {
	timing := &StepTiming{QueueMs: 0.5, BuildMs: 2, MomentsMs: 1, TotalMs: 4}
	for _, tc := range []struct {
		sent any
		line string
	}{
		{SessionOpened{Event: "opened", N: 64, Procs: 2, LeafCap: 8, IdleMs: 120000},
			`{"event":"opened","n":64,"procs":2,"leaf_cap":8,"idle_ms":120000}`},
		{SessionStepResult{Event: "step", Step: 3, Mode: "rebuild", Reason: "requested", Fallback: true,
			Moved: 9, Churn: 0.25, BuildNs: 1000, Verified: true, Timing: timing},
			`{"event":"step","step":3,"mode":"rebuild","reason":"requested","fallback":true,"moved":9,"churn":0.25,` +
				`"locks":0,"build_ns":1000,"verified":true,` +
				`"timing":{"queue_ms":0.5,"build_ms":2,"moments_ms":1,"total_ms":4}}`},
		{SessionStepResult{Event: "step", Step: 1, Mode: "update"},
			`{"event":"step","step":1,"mode":"update","moved":0,"churn":0,"locks":0,"build_ns":0}`},
		{SessionClosed{Event: "closed", Steps: 4, Fallbacks: 1, Reason: "close"},
			`{"event":"closed","steps":4,"fallbacks":1,"reason":"close"}`},
		{SessionError{Event: "error", Error: "session closed: draining"},
			`{"event":"error","error":"session closed: draining"}`},
	} {
		var want SessionRecord
		switch rec := tc.sent.(type) {
		case SessionOpened:
			want = SessionRecord{Event: rec.Event, Opened: rec}
		case SessionStepResult:
			want = SessionRecord{Event: rec.Event, Step: rec}
		case SessionClosed:
			want = SessionRecord{Event: rec.Event, Closed: rec}
		case SessionError:
			want = SessionRecord{Event: rec.Event, Err: rec}
		}
		line, err := json.Marshal(tc.sent)
		if err != nil || string(line) != tc.line {
			t.Errorf("%T encodes as\n%s (%v), want\n%s", tc.sent, line, err, tc.line)
		}
		var got SessionRecord
		if err := json.Unmarshal(line, &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s\ndecodes to %+v (%v)\nwant       %+v", line, got, err, want)
		}
	}
}

// TestServerTimingRoundTrip pins the header's bytes and that the parser
// reads back what the renderer wrote.
func TestServerTimingRoundTrip(t *testing.T) {
	var tot reqtrace.Totals
	tot[reqtrace.Queue], tot[reqtrace.Bounds], tot[reqtrace.Insert], tot[reqtrace.Moments] = 12e3, 1e6, 5e5, 25e4
	v := ServerTiming(Timing(tot, 2*time.Millisecond))
	if want := "queue;dur=0.012, build;dur=1.500, moments;dur=0.250, total;dur=2.000"; v != want {
		t.Fatalf("ServerTiming = %q, want %q", v, want)
	}
	got := ParseServerTiming(v)
	want := map[string]float64{"queue": 0.012, "build": 1.5, "moments": 0.25, "total": 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseServerTiming(%q) = %v, want %v", v, got, want)
	}
	if got := ParseServerTiming(`cache;desc="hit", db;dur=abc`); len(got) != 0 {
		t.Errorf("a header without a numeric dur parsed to %v", got)
	}
}
