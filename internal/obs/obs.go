// Package obs is the repo's live observability layer: a dependency-free
// metrics registry (counters, gauges, histograms with deterministic
// buckets) that renders the Prometheus text exposition format, plus an
// HTTP server mounting /metrics, /healthz, /debug/pprof/* and expvar.
//
// One rule decides where a metric lives: the component that counts
// something holds the *Counter (or the child of a labeled Vec) it counts
// into, created with its name and help where the component is
// constructed; it calls Inc/Add where the event happens, and its
// RegisterObs merely lists what it holds. Nothing keeps a second tally
// to copy from at scrape time, so tests and audits read Counter.Value.
// GaugeFunc is for state that is sampled rather than counted — a queue's
// depth, a pool's size, the latest value of a tuned knob. Counting is
// one atomic update whether or not anything scrapes, registries are
// plain values a test can build in isolation, and a binary attaches its
// components to one only when it runs with -http.
//
// Metric names follow the Prometheus conventions: a partree_ prefix,
// _total suffix on counters, base units (seconds, bytes) on histograms
// and gauges. See DESIGN.md §2.8 for the full name table.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Collector is anything that can contribute metric families to a render
// pass. The built-in metric types all implement it; a component
// implements it for a family whose series are sampled from state it
// already holds (a store's sizes, the slowest request per route).
type Collector interface {
	// Collect appends the collector's current families. Implementations
	// must be safe for concurrent use with the updates they observe.
	Collect(out []Family) []Family
}

// Family is one named metric with its help text, type, and series.
type Family struct {
	Name   string
	Help   string
	Type   Type
	Series []Series
}

// Type is the Prometheus metric type of a family.
type Type string

// The exposition types the registry renders.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// Series is one sample (or, for histograms, one bucketed distribution)
// within a family, identified by its label values.
type Series struct {
	// Labels are name=value pairs, rendered in the given order.
	Labels []Label
	// Value is the sample for counters and gauges.
	Value float64
	// Hist carries the distribution for histogram families.
	Hist *HistSnapshot
}

// Label is one name=value pair on a series.
type Label struct {
	Name  string
	Value string
}

// HistSnapshot is a consistent view of a histogram: cumulative bucket
// counts aligned with the histogram's upper bounds, plus sum and count.
type HistSnapshot struct {
	UpperBounds []float64 // exclusive of the implicit +Inf bucket
	Counts      []uint64  // cumulative, len == len(UpperBounds)
	Count       uint64
	Sum         float64
}

// Registry holds registered collectors and renders them. The zero value
// is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
	names      map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// Register adds collectors, all of them or — on a duplicate or invalid
// name anywhere in cs — none. Metrics created by this package register
// their family name so duplicates are rejected; foreign collectors are
// trusted to keep their names unique.
func (r *Registry) Register(cs ...Collector) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := map[string]bool{}
	for _, c := range cs {
		n, ok := c.(interface{ metricName() string })
		if !ok {
			continue
		}
		name := n.metricName()
		if r.names[name] || names[name] {
			return fmt.Errorf("obs: duplicate metric %q", name)
		}
		if err := checkMetricName(name); err != nil {
			return err
		}
		names[name] = true
	}
	for name := range names {
		r.names[name] = true
	}
	r.collectors = append(r.collectors, cs...)
	return nil
}

// MustRegister is Register panicking on error (for init-time wiring).
func (r *Registry) MustRegister(cs ...Collector) {
	if err := r.Register(cs...); err != nil {
		panic(err)
	}
}

// Gather collects every registered family, sorted by name, with each
// family's series sorted by label values — so renders are deterministic
// regardless of registration or update order.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()
	var fams []Family
	for _, c := range collectors {
		fams = c.Collect(fams)
	}
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	for i := range fams {
		s := fams[i].Series
		sort.SliceStable(s, func(a, b int) bool { return labelKey(s[a].Labels) < labelKey(s[b].Labels) })
	}
	return fams
}

func labelKey(ls []Label) string {
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// checkMetricName enforces the Prometheus data-model name charset.
func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("obs: invalid metric name %q", name)
		}
	}
	return nil
}

// checkLabelName enforces the Prometheus label-name charset.
func checkLabelName(name string) error {
	if name == "" || strings.HasPrefix(name, "__") {
		return fmt.Errorf("obs: invalid label name %q", name)
	}
	for i, c := range name {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("obs: invalid label name %q", name)
		}
	}
	return nil
}

// desc is the shared identity of a metric family.
type desc struct {
	name string
	help string
}

func (d desc) metricName() string { return d.name }

// Counter is a monotonically increasing sample. All methods are safe for
// concurrent use; Add is one atomic operation.
type Counter struct {
	desc
	labels []Label
	bits   atomic.Uint64
}

// NewCounter creates a standalone counter (register it to expose it).
func NewCounter(name, help string) *Counter {
	return &Counter{desc: desc{name, help}}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Collect implements Collector.
func (c *Counter) Collect(out []Family) []Family {
	return append(out, Family{Name: c.name, Help: c.help, Type: TypeCounter,
		Series: []Series{{Labels: c.labels, Value: c.Value()}}})
}

// GaugeFunc samples a value at collect time — how cheap-to-read state
// (goroutine counts, cache sizes) is exposed without maintenance cost.
type GaugeFunc struct {
	desc
	fn func() float64
}

// NewGaugeFunc creates a gauge whose value is fn() at scrape time.
func NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	return &GaugeFunc{desc: desc{name, help}, fn: fn}
}

// Collect implements Collector.
func (g *GaugeFunc) Collect(out []Family) []Family {
	return append(out, Family{Name: g.name, Help: g.help, Type: TypeGauge,
		Series: []Series{{Value: g.fn()}}})
}

// Histogram is a fixed-bucket distribution. Buckets are chosen at
// construction (deterministic — never resized at runtime), so Observe is
// a binary search plus two atomic adds and renders are reproducible.
type Histogram struct {
	desc
	labels []Label
	bounds []float64
	counts []atomic.Uint64 // per-bucket (non-cumulative); last = +Inf
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// NewHistogram creates a histogram with the given strictly increasing
// upper bounds. An implicit +Inf bucket is always appended.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not increasing at %d", name, i))
		}
	}
	return &Histogram{
		desc:   desc{name, help},
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// ExpBuckets returns n upper bounds start, start·factor, start·factor²…
// — the deterministic bucket ladder used by the duration histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start>0, factor>1, n>=1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot returns the cumulative bucket view rendered on scrape.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{
		UpperBounds: h.bounds,
		Counts:      make([]uint64, len(h.bounds)),
		Sum:         math.Float64frombits(h.sum.Load()),
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		s.Counts[i] = cum
	}
	s.Count = cum + h.counts[len(h.bounds)].Load()
	return s
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Collect implements Collector.
func (h *Histogram) Collect(out []Family) []Family {
	return append(out, Family{Name: h.name, Help: h.help, Type: TypeHistogram,
		Series: []Series{{Labels: h.labels, Hist: h.Snapshot()}}})
}

// Vec is a family of label-addressed children sharing one name — the
// labeled form of Counter and Histogram. Children are created on first
// use and live forever (label cardinality here is algorithm/backend
// names, bounded by construction); a component that counts on a hot path
// resolves its children once and keeps them.
type Vec[M Collector] struct {
	desc
	typ        Type
	labelNames []string
	make       func(labels []Label) M

	mu       sync.Mutex
	children map[string]M
	order    []string
}

// With returns the child for the given label values (created on first
// use). The number of values must match the vec's label names.
func (v *Vec[M]) With(values ...string) M {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.name, len(v.labelNames), len(values)))
	}
	key := strings.Join(values, "\x01")
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	labels := make([]Label, len(values))
	for i := range values {
		labels[i] = Label{v.labelNames[i], values[i]}
	}
	c := v.make(labels)
	v.children[key] = c
	v.order = append(v.order, key)
	return c
}

// Collect implements Collector: one family holding every child's series
// (none yet still advertises the family).
func (v *Vec[M]) Collect(out []Family) []Family {
	fam := Family{Name: v.name, Help: v.help, Type: v.typ}
	v.mu.Lock()
	children := make([]M, len(v.order))
	for i, k := range v.order {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	for _, c := range children {
		fam.Series = append(fam.Series, c.Collect(nil)[0].Series...)
	}
	return append(out, fam)
}

func newVec[M Collector](name, help string, typ Type, labelNames []string, make func([]Label) M) *Vec[M] {
	for _, ln := range labelNames {
		if err := checkLabelName(ln); err != nil {
			panic(err)
		}
	}
	return &Vec[M]{desc: desc{name, help}, typ: typ, labelNames: labelNames,
		children: map[string]M{}, make: make}
}

// NewCounterVec creates a labeled counter family.
func NewCounterVec(name, help string, labelNames ...string) *Vec[*Counter] {
	return newVec(name, help, TypeCounter, labelNames, func(ls []Label) *Counter {
		return &Counter{desc: desc{name, help}, labels: ls}
	})
}

// NewHistogramVec creates a labeled histogram family with shared bounds.
func NewHistogramVec(name, help string, bounds []float64, labelNames ...string) *Vec[*Histogram] {
	return newVec(name, help, TypeHistogram, labelNames, func(ls []Label) *Histogram {
		h := NewHistogram(name, help, bounds)
		h.labels = ls
		return h
	})
}

// formatValue renders a sample the way Prometheus expects: shortest
// round-trip decimal, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
