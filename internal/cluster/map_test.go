package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"partree/internal/partition"
	"partree/internal/vec"
)

func TestUniformMapValidates(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		m := UniformMap(1, Domain{Size: 4}, n)
		if err := m.Validate(); err != nil {
			t.Fatalf("UniformMap(%d): %v", n, err)
		}
		if len(m.Shards) != n {
			t.Fatalf("UniformMap(%d) has %d shards", n, len(m.Shards))
		}
	}
}

func TestMapValidateRejects(t *testing.T) {
	d := Domain{Size: 4}
	half := partition.KeySpace / 2
	cases := []struct {
		name string
		m    Map
	}{
		{"zero version", Map{Domain: d, Shards: []Shard{{ID: "a", Lo: 0, Hi: partition.KeySpace}}}},
		{"no shards", Map{Version: 1, Domain: d}},
		{"zero domain", Map{Version: 1, Shards: []Shard{{ID: "a", Lo: 0, Hi: partition.KeySpace}}}},
		{"empty range", Map{Version: 1, Domain: d, Shards: []Shard{
			{ID: "a", Lo: 0, Hi: 0}, {ID: "b", Lo: 0, Hi: partition.KeySpace}}}},
		{"gap", Map{Version: 1, Domain: d, Shards: []Shard{
			{ID: "a", Lo: 0, Hi: half - 1}, {ID: "b", Lo: half, Hi: partition.KeySpace}}}},
		{"overlap", Map{Version: 1, Domain: d, Shards: []Shard{
			{ID: "a", Lo: 0, Hi: half + 1}, {ID: "b", Lo: half, Hi: partition.KeySpace}}}},
		{"not from zero", Map{Version: 1, Domain: d, Shards: []Shard{
			{ID: "a", Lo: 1, Hi: partition.KeySpace}}}},
		{"short cover", Map{Version: 1, Domain: d, Shards: []Shard{
			{ID: "a", Lo: 0, Hi: half}}}},
		{"dup id", Map{Version: 1, Domain: d, Shards: []Shard{
			{ID: "a", Lo: 0, Hi: half}, {ID: "a", Lo: half, Hi: partition.KeySpace}}}},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid map", tc.name)
		}
	}
}

func TestSingleShardMapDegenerate(t *testing.T) {
	m := UniformMap(3, Domain{Size: 4}, 1)
	if err := m.Validate(); err != nil {
		t.Fatalf("single-shard map invalid: %v", err)
	}
	for _, p := range []vec.V3{{}, {X: 1.9}, {X: -100, Y: 100, Z: 3}} {
		if key := partition.MortonKey(m.Domain.Cube(), p); !m.Shards[0].Owns(key) {
			t.Fatalf("single-shard map does not own %v (key %#x)", p, key)
		}
	}
}

func TestMapEncodeDeterministic(t *testing.T) {
	m := UniformMap(2, Domain{Center: [3]float64{0.5, -0.25, 0}, Size: 8}, 3)
	m.Shards[0].Addr = "127.0.0.1:1"
	m.Shards[1].Addr = "127.0.0.1:2"
	m.Shards[2].Addr = "127.0.0.1:3"
	a, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("Encode is not byte-deterministic:\n%s\nvs\n%s", a, b)
	}
	back, err := ParseMap(a)
	if err != nil {
		t.Fatalf("ParseMap(Encode()): %v", err)
	}
	c, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("Encode → Parse → Encode changed bytes")
	}
}

func TestParseMapRejectsUnknownFields(t *testing.T) {
	if _, err := ParseMap([]byte(`{"version":1,"domain":{"center":[0,0,0],"size":4},"shards":[],"extra":1}`)); err == nil {
		t.Fatal("ParseMap accepted unknown fields")
	}
}

// TestParseMapRejectsTrailingData: a map document must be the whole
// input — a second document or junk after a valid map is refused rather
// than silently dropped.
func TestParseMapRejectsTrailingData(t *testing.T) {
	doc, err := UniformMap(1, Domain{Size: 4}, 2).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{`{"version":2}`, "trailing junk", `{"version":2} trailing junk`, "]"} {
		if _, err := ParseMap(append(append([]byte(nil), doc...), tail...)); err == nil {
			t.Errorf("ParseMap accepted a map followed by %q", tail)
		}
	}
	if _, err := ParseMap(append(append([]byte(nil), doc...), " \n\t\n"...)); err != nil {
		t.Errorf("ParseMap refused trailing whitespace: %v", err)
	}
}

// FuzzParseMap: an accepted document is exactly one JSON value and a
// valid map, and Encode → ParseMap → Encode is byte-identical.
func FuzzParseMap(f *testing.F) {
	doc, err := UniformMap(1, Domain{Center: [3]float64{0.5, -0.25, 0}, Size: 4}, 3).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	f.Add(append(append([]byte(nil), doc...), `{"version":2} trailing junk`...))
	f.Add([]byte(`{"version":1,"domain":{"center":[0,0,0],"size":4},"shards":[{"id":"a","addr":"h:1","lo":0,"hi":281474976710656}]}`))
	f.Add([]byte(`{"version":1,"domain":{"size":4},"shards":[{"id":"a","lo":0,"hi":1},{"id":"b","lo":1,"hi":281474976710656}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := ParseMap(b)
		if err != nil {
			return
		}
		if !json.Valid(b) {
			t.Fatalf("ParseMap accepted input that is not one JSON value: %q", b)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("ParseMap accepted an invalid map: %v", err)
		}
		first, err := m.Encode()
		if err != nil {
			t.Fatalf("encoding an accepted map: %v", err)
		}
		back, err := ParseMap(first)
		if err != nil {
			t.Fatalf("ParseMap(Encode()) refused: %v\n%s", err, first)
		}
		second, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("Encode → ParseMap → Encode changed bytes:\n%s\nvs\n%s", first, second)
		}
	})
}

func TestWithoutAddrs(t *testing.T) {
	m := UniformMap(1, Domain{Size: 4}, 2)
	m.Shards[0].Addr = "x"
	c := m.WithoutAddrs()
	if c.Shards[0].Addr != "" || m.Shards[0].Addr != "x" {
		t.Fatal("WithoutAddrs must clear the copy and leave the original")
	}
}

// TestShardOwnsBoundaryKey pins the half-open convention: a key equal to
// Hi belongs to the next shard, a key equal to Lo belongs to this one.
func TestShardOwnsBoundaryKey(t *testing.T) {
	cut := partition.KeySpace / 2
	low := Shard{Lo: 0, Hi: cut}
	high := Shard{Lo: cut, Hi: partition.KeySpace}
	if low.Owns(cut) {
		t.Fatalf("low shard owns its exclusive upper bound %#x", cut)
	}
	if !high.Owns(cut) {
		t.Fatalf("high shard does not own its inclusive lower bound %#x", cut)
	}
	if !low.Owns(0) || !low.Owns(cut-1) {
		t.Fatalf("low shard missing interior keys")
	}
	if high.Owns(partition.KeySpace) {
		t.Fatalf("high shard owns KeySpace, which no key reaches")
	}
	if (Shard{}).Owns(0) {
		t.Fatalf("the zero shard owns a key")
	}
}
