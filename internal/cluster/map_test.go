package cluster

import (
	"bytes"
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

// TestShardForBoundary pins the half-open routing convention for keys
// exactly on a range boundary: the boundary key belongs to the *upper*
// shard, matching Shard.Owns.
func TestShardForBoundary(t *testing.T) {
	m := UniformMap(1, Domain{Size: 4}, 2)
	cut := m.Shards[0].Hi
	if got := m.ShardFor(cut - 1); got != 0 {
		t.Fatalf("ShardFor(cut-1) = %d, want 0", got)
	}
	if got := m.ShardFor(cut); got != 1 {
		t.Fatalf("ShardFor(cut) = %d, want 1 (half-open ranges)", got)
	}
	if got := m.ShardFor(0); got != 0 {
		t.Fatalf("ShardFor(0) = %d, want 0", got)
	}
	if got := m.ShardFor(partition.KeySpace - 1); got != 1 {
		t.Fatalf("ShardFor(KeySpace-1) = %d, want 1", got)
	}
	if got := m.ShardFor(partition.KeySpace); got != -1 {
		t.Fatalf("ShardFor(KeySpace) = %d, want -1", got)
	}

	// A body sitting exactly on the domain's splitting planes quantizes
	// to the positive side (vec.Cube.OctantOf's convention), so the
	// center point routes deterministically to the upper shard.
	if got := m.ShardFor(m.KeyOf(vec.V3{})); got != 1 {
		t.Fatalf("domain-center body routed to shard %d, want 1", got)
	}
}

func TestSingleShardMapDegenerate(t *testing.T) {
	m := UniformMap(3, Domain{Size: 4}, 1)
	if err := m.Validate(); err != nil {
		t.Fatalf("single-shard map invalid: %v", err)
	}
	for _, p := range []vec.V3{{}, {X: 1.9}, {X: -100, Y: 100, Z: 3}} {
		if got := m.ShardFor(m.KeyOf(p)); got != 0 {
			t.Fatalf("single-shard map routed %v to %d", p, got)
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

func TestWithoutAddrs(t *testing.T) {
	m := UniformMap(1, Domain{Size: 4}, 2)
	m.Shards[0].Addr = "x"
	c := m.WithoutAddrs()
	if c.Shards[0].Addr != "" || m.Shards[0].Addr != "x" {
		t.Fatal("WithoutAddrs must clear the copy and leave the original")
	}
}

// TestLocateOwnership: the ownership test a shard puts in front of body
// state keys a position under the map's domain and answers for one
// shard's range — a single-shard map owns everything (out-of-domain
// positions clamp to a face key), and on a two-shard map each body is
// owned by exactly the shard ShardFor names, under the same key.
func TestLocateOwnership(t *testing.T) {
	full := UniformMap(1, Domain{Size: 2}, 1)
	for _, p := range []vec.V3{{X: 0.9, Y: -0.9, Z: 0.3}, {X: 50, Y: 50, Z: 50}} {
		if key, owns := full.Locate(0, p); !owns || key != full.KeyOf(p) {
			t.Fatalf("single-shard map: Locate(%v) = (%#x, %t), want (%#x, true)", p, key, owns, full.KeyOf(p))
		}
	}

	halves := UniformMap(1, Domain{Size: 2}, 2)
	for want, p := range []vec.V3{{X: -0.9, Y: -0.9, Z: -0.9}, {X: 0.9, Y: 0.9, Z: 0.9}} {
		for idx := range halves.Shards {
			key, owns := halves.Locate(idx, p)
			if key != halves.KeyOf(p) || owns != (idx == want) {
				t.Errorf("shard %d: Locate(%v) = (%#x, %t), want (%#x, %t)", idx, p, key, owns, halves.KeyOf(p), idx == want)
			}
		}
		if got := halves.ShardFor(halves.KeyOf(p)); got != want {
			t.Errorf("ShardFor names shard %d for %v, Locate names %d", got, p, want)
		}
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
