package obs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"
)

// fuzzRegistry derives a registry from fuzz input: the bytes are consumed
// as float64 sample values (any bit pattern — NaN, ±Inf, subnormals) and
// as label values (any bytes — quotes, backslashes, newlines, spaces),
// spread over every metric kind the repo registers.
func fuzzRegistry(data []byte) *Registry {
	next := func() float64 {
		var b [8]byte
		n := copy(b[:], data)
		data = data[n:]
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	reg := NewRegistry()
	c := NewCounter("fz_ops_total", "a counter")
	c.Add(next())
	g := next()
	hv := NewHistogramVec("fz_seconds", "a histogram", ExpBuckets(0.001, 10, 4), "who")
	labeled := families{{Name: "fz_labeled", Help: "labeled gauge", Type: TypeGauge}}
	for i := 0; len(data) > 0 && i < 8; i++ {
		v := next()
		n := len(data) / 2
		label := string(data[:n])
		data = data[n:]
		hv.With(label).Observe(v)
		labeled[0].Series = append(labeled[0].Series,
			Series{Labels: []Label{{"i", fmt.Sprint(i)}, {"who", label}}, Value: v})
	}
	reg.MustRegister(c, NewGaugeFunc("fz_level", "a gauge func", func() float64 { return g }), hv, labeled)
	return reg
}

// sampleKey renders the series-line key ParseText files a sample under.
func sampleKey(name string, labels []Label) string {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	writeSample(bw, name, labels, "", "", "")
	bw.Flush()
	return string(bytes.TrimSuffix(buf.Bytes(), []byte(" \n")))
}

// FuzzParseText holds the one exposition parser — which reads bytes that
// arrive from a socket (a shard's or a daemon's /metrics page) — to two
// properties: arbitrary input never panics it, and whatever registry
// WritePrometheus renders, ParseText recovers every sample line's value.
func FuzzParseText(f *testing.F) {
	golden, err := os.ReadFile("testdata/registry.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte("a 1\nb{x=\"y z\"} NaN\n# c\n\nnovalue\n lead 2 \n{} +Inf\n3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ParseText(bytes.NewReader(data)); err != nil && !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("ParseText on raw input: %v", err)
		}

		reg := fuzzRegistry(data)
		var page bytes.Buffer
		if err := reg.WritePrometheus(&page); err != nil {
			t.Fatal(err)
		}
		got, err := ParseText(&page)
		if err != nil {
			t.Fatalf("ParseText on a rendered page: %v", err)
		}
		samples := 0
		want := func(name string, labels []Label, v float64) {
			t.Helper()
			samples++
			key := sampleKey(name, labels)
			g, ok := got[key]
			if !ok {
				t.Fatalf("sample %q lost", key)
			}
			if g != v && !(math.IsNaN(g) && math.IsNaN(v)) {
				t.Fatalf("sample %q = %v, want %v", key, g, v)
			}
		}
		for _, fam := range reg.Gather() {
			for _, s := range fam.Series {
				if s.Hist == nil {
					want(fam.Name, s.Labels, s.Value)
					continue
				}
				le := func(ub string) []Label { return append(append([]Label{}, s.Labels...), Label{"le", ub}) }
				for i, ub := range s.Hist.UpperBounds {
					want(fam.Name+"_bucket", le(formatValue(ub)), float64(s.Hist.Counts[i]))
				}
				want(fam.Name+"_bucket", le("+Inf"), float64(s.Hist.Count))
				want(fam.Name+"_sum", s.Labels, s.Hist.Sum)
				want(fam.Name+"_count", s.Labels, float64(s.Hist.Count))
			}
		}
		if len(got) != samples {
			t.Fatalf("ParseText returned %d samples from a page of %d", len(got), samples)
		}
	})
}
