package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// families is a fixed Collector — how a family sampled from a
// component's state reaches a registry (the harness's current
// experiment, the slowest request per route).
type families []Family

func (f families) Collect(out []Family) []Family { return append(out, f...) }

// goldenRegistry builds a registry exercising every metric kind with
// deterministic values: plain counters, a scrape-time gauge func, a
// counter vec (including label values that need escaping), a collector's
// family with no series yet, and a histogram vec with samples below,
// inside, and above its bucket ladder.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	c := NewCounter("partree_test_ops_total", "Operations performed.")
	c.Add(42)
	g := NewGaugeFunc("partree_test_temperature", "Current level.\nSecond line with a \\ backslash.",
		func() float64 { return -3.5 })
	cf := NewCounter("partree_test_ticks_total", "Sampled at scrape time.")
	cf.Add(7)
	events := NewCounterVec("partree_test_events_total", "Labeled events.", "alg", "note")
	events.With("ORIG", "quote\" back\\slash\nnewline").Add(5)
	events.With("LOCAL", "plain").Inc()
	idle := families{{Name: "partree_test_idle", Help: "A vec with no children yet.", Type: TypeGauge}}
	hv := NewHistogramVec("partree_test_duration_seconds", "Durations.",
		ExpBuckets(0.001, 2, 4), "backend")
	h := hv.With("native")
	h.Observe(0.0005) // below first bound
	h.Observe(0.003)  // interior bucket
	h.Observe(100)    // +Inf overflow
	reg.MustRegister(c, g, cf, events, idle, hv)
	return reg
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from golden file %s.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestWritePrometheusGolden pins the text exposition byte-for-byte: HELP
// and TYPE lines, family/series sort order, label escaping, histogram
// bucket expansion, and value formatting. Regenerate with:
// go test ./internal/obs -run Golden -update
func TestWritePrometheusGolden(t *testing.T) {
	reg := goldenRegistry()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := reg.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two renders of an unchanged registry differ")
	}
	checkGolden(t, "registry.golden", buf.Bytes())
}

func TestCounterIgnoresNegativeAdds(t *testing.T) {
	c := NewCounter("c_total", "")
	c.Add(2)
	c.Add(-5)
	c.Inc()
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
}

// TestHistogramBucketBoundary pins the le-inclusive contract: a sample
// exactly on a bound counts in that bound's bucket.
func TestHistogramBucketBoundary(t *testing.T) {
	h := NewHistogram("h_seconds", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 2, 3, 9} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 3, 4} // cumulative: le=1 -> {0.5,1}, le=2 -> +{2}, le=4 -> +{3}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket le=%v count = %d, want %d", s.UpperBounds[i], s.Counts[i], w)
		}
	}
	if s.Count != 5 || s.Sum != 15.5 {
		t.Fatalf("count=%d sum=%v, want 5 / 15.5", s.Count, s.Sum)
	}
	if h.Count() != 5 {
		t.Fatalf("Count() = %d, want 5", h.Count())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets(0, ...) did not panic")
		}
	}()
	ExpBuckets(0, 2, 4)
}

func TestRegistryRejectsDuplicateNames(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(NewCounter("dup_total", "")); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(NewGaugeFunc("dup_total", "", func() float64 { return 0 })); err == nil {
		t.Fatal("duplicate metric name accepted")
	}
}

// TestRegisterIsAllOrNothing: a list refused for a duplicate, an invalid
// name or a name it carries twice registers none of its collectors, so
// the page is unchanged and the good ones can be registered afterwards.
func TestRegisterIsAllOrNothing(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(NewCounter("existing_total", ""))
	a := NewCounter("a_total", "")
	for what, bad := range map[string]Collector{
		"a duplicate of a registered name": NewCounter("existing_total", ""),
		"an invalid name":                  NewCounter("bad-name", ""),
		"a name listed twice":              NewCounter("a_total", ""),
	} {
		if err := reg.Register(a, families{{Name: "foreign"}}, bad); err == nil {
			t.Fatalf("a list ending in %s was accepted", what)
		}
		if fams := reg.Gather(); len(fams) != 1 || fams[0].Name != "existing_total" {
			t.Fatalf("after a list ending in %s was refused, the registry gathers %+v", what, fams)
		}
	}
	if err := reg.Register(a); err != nil {
		t.Fatalf("registering a after the refusals: %v", err)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", "bad-name", "0leading", "spa ce"} {
		if err := NewRegistry().Register(NewCounter(name, "")); err == nil {
			t.Fatalf("metric name %q accepted", name)
		}
	}
}

func TestVecArityPanics(t *testing.T) {
	v := NewHistogramVec("v_seconds", "", []float64{1}, "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestVecSharesChildren(t *testing.T) {
	v := NewHistogramVec("v_seconds", "", []float64{1}, "alg")
	if fams := v.Collect(nil); len(fams) != 1 || fams[0].Type != TypeHistogram || len(fams[0].Series) != 0 {
		t.Fatalf("a vec with no children yet must still advertise its family, got %+v", fams)
	}
	v.With("ORIG").Observe(2)
	v.With("ORIG").Observe(0.5)
	if got := v.With("ORIG").Count(); got != 2 {
		t.Fatalf("child count = %v, want 2", got)
	}
	fams := v.Collect(nil)
	if len(fams) != 1 || len(fams[0].Series) != 1 {
		t.Fatalf("want one family with one series, got %+v", fams)
	}
}

func TestEscaping(t *testing.T) {
	if got := escapeLabelValue("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("label escape = %q", got)
	}
	if got := escapeHelp("a\\b\nc"); got != `a\\b\nc` {
		t.Fatalf("help escape = %q", got)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:     "0",
		1.5:   "1.5",
		1e21:  "1e+21",
		0.001: "0.001",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Fatalf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(math.Inf(1)); got != "+Inf" {
		t.Fatalf("formatValue(+Inf) = %q", got)
	}
	if got := formatValue(math.Inf(-1)); got != "-Inf" {
		t.Fatalf("formatValue(-Inf) = %q", got)
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Fatalf("formatValue(NaN) = %q", got)
	}
}

func TestMetricNameValidation(t *testing.T) {
	good := []string{"a", "partree_runner_runs_total", "A:b_9"}
	for _, n := range good {
		if err := checkMetricName(n); err != nil {
			t.Fatalf("%q rejected: %v", n, err)
		}
	}
	if err := checkLabelName("__reserved"); err == nil {
		t.Fatal("__-prefixed label name accepted")
	}
	if err := checkLabelName("le9"); err != nil {
		t.Fatal(err)
	}
}

// TestGatherSorts pins the deterministic ordering contract: families by
// name, series by label values, regardless of registration order.
func TestGatherSorts(t *testing.T) {
	reg := NewRegistry()
	b := NewCounter("b_total", "")
	a := NewCounter("a_total", "")
	v := NewHistogramVec("m_total", "", []float64{1}, "alg")
	v.With("zeta").Observe(1)
	v.With("alpha").Observe(1)
	reg.MustRegister(b, a, v)
	fams := reg.Gather()
	var names []string
	for _, f := range fams {
		names = append(names, f.Name)
	}
	if strings.Join(names, ",") != "a_total,b_total,m_total" {
		t.Fatalf("family order %v", names)
	}
	series := fams[2].Series
	if series[0].Labels[0].Value != "alpha" || series[1].Labels[0].Value != "zeta" {
		t.Fatalf("series not sorted by label value: %+v", series)
	}
}

// TestRuntimeCollectorConcurrentScrapes gathers the runtime families
// from several goroutines at once, as concurrent /metrics requests do;
// under -race it holds the collector's cached sample to its lock.
func TestRuntimeCollectorConcurrentScrapes(t *testing.T) {
	reg := NewRegistry()
	rc := &runtimeCollector{}
	reg.MustRegister(rc) // minInterval 0: every scrape resamples
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if len(reg.Gather()) == 0 {
					t.Error("runtime collector gathered no families")
					return
				}
			}
		}()
	}
	wg.Wait()
}
