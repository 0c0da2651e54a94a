// Package cluster is the multi-process serving tier: a Morton-order
// shard map that splits the simulation domain into spatially contiguous
// key ranges, the shard-side HTTP surface a partreed process mounts to
// own one range, and the router that fronts a fleet — fanning build
// requests out, merging per-shard results under the same conservation
// laws internal/verify audits inside one process, and rolling each
// shard's /metrics up into one partree_cluster_* page.
//
// The design lifts the paper's local-build-then-merge structure one
// level: within a process, PARTREE has each processor build a local tree
// and merge it; across processes, each shard builds the subtree for its
// Morton range and the router merges the *measurements*. Shards are
// stateless: a shard build is a pure function of the map and the spec —
// every shard regenerates the spec's body set, keys it against the
// map's shared domain and builds the bodies its range owns — so no body
// lives on a shard between requests and none moves between shards.
// Morton ranges make the split locality-aware for free — sorting by
// partition.MortonKey recovers the octree's depth-first order, so a
// contiguous key range is a spatially compact subdomain.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"partree/internal/partition"
	"partree/internal/vec"
)

// Domain is the cluster-wide bounding cube in a JSON-stable form. Every
// shard and the router key positions against this one cube; two
// processes with different domains would disagree about which shard owns
// a body, so the domain travels inside the versioned map rather than
// being derived from any one request's bodies.
type Domain struct {
	Center [3]float64 `json:"center"`
	Size   float64    `json:"size"`
}

// Cube returns the domain as the geometric type the keying uses.
func (d Domain) Cube() vec.Cube {
	return vec.Cube{Center: vec.V3{X: d.Center[0], Y: d.Center[1], Z: d.Center[2]}, Size: d.Size}
}

// Shard is one member of the map: a stable ID, the half-open Morton key
// range [Lo, Hi) it owns, and (on the router's copy) its address. Shard
// processes may carry an addr-less copy — a shard needs to know only its
// own range and the shared domain, while the router needs to reach
// everyone.
type Shard struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
	Lo   uint64 `json:"lo"`
	Hi   uint64 `json:"hi"`
}

// Map is the versioned shard map. The version is the consistency token
// of the whole tier: every shard-level request carries the sender's map
// version, and a shard that sees a different one answers 409 rather than
// silently acting on ranges that may have moved.
type Map struct {
	Version int     `json:"version"`
	Domain  Domain  `json:"domain"`
	Shards  []Shard `json:"shards"`
}

// UniformMap builds a version'd map splitting [0, partition.KeySpace)
// into n near-equal contiguous ranges with IDs s0..s(n-1). Addresses are
// left empty for the caller to fill.
func UniformMap(version int, d Domain, n int) Map {
	m := Map{Version: version, Domain: d, Shards: make([]Shard, n)}
	for i := 0; i < n; i++ {
		lo := partition.KeySpace / uint64(n) * uint64(i)
		hi := partition.KeySpace / uint64(n) * uint64(i+1)
		if i == n-1 {
			hi = partition.KeySpace
		}
		m.Shards[i] = Shard{ID: fmt.Sprintf("s%d", i), Lo: lo, Hi: hi}
	}
	return m
}

// Validate checks the structural invariants every user of a map relies
// on: a positive version, a usable domain, and ranges that are sorted,
// non-empty, pairwise contiguous, and exactly cover [0, KeySpace) — so
// every key has exactly one owner. Addresses are not required here; the
// router additionally demands them.
func (m Map) Validate() error {
	if m.Version <= 0 {
		return fmt.Errorf("cluster: map version %d must be positive", m.Version)
	}
	if m.Domain.Size <= 0 {
		return fmt.Errorf("cluster: domain size %v must be positive", m.Domain.Size)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("cluster: map has no shards")
	}
	seen := make(map[string]bool, len(m.Shards))
	for i, s := range m.Shards {
		if s.ID == "" {
			return fmt.Errorf("cluster: shard %d has no id", i)
		}
		if seen[s.ID] {
			return fmt.Errorf("cluster: duplicate shard id %q", s.ID)
		}
		seen[s.ID] = true
		if s.Lo >= s.Hi {
			return fmt.Errorf("cluster: shard %q range [%#x, %#x) is empty", s.ID, s.Lo, s.Hi)
		}
		if s.Hi > partition.KeySpace {
			return fmt.Errorf("cluster: shard %q range ends at %#x past KeySpace %#x", s.ID, s.Hi, partition.KeySpace)
		}
		if i == 0 {
			if s.Lo != 0 {
				return fmt.Errorf("cluster: first shard starts at %#x, not 0", s.Lo)
			}
		} else if s.Lo != m.Shards[i-1].Hi {
			return fmt.Errorf("cluster: shard %q starts at %#x, previous ends at %#x (gap or overlap)",
				s.ID, s.Lo, m.Shards[i-1].Hi)
		}
	}
	if last := m.Shards[len(m.Shards)-1]; last.Hi != partition.KeySpace {
		return fmt.Errorf("cluster: last shard ends at %#x, not KeySpace %#x", last.Hi, partition.KeySpace)
	}
	return nil
}

// Owns reports whether a key falls inside the shard's half-open range:
// a key equal to Hi belongs to the next shard, a key equal to Lo to this
// one.
func (s Shard) Owns(key uint64) bool {
	return key >= s.Lo && key < s.Hi
}

// ShardByID returns the index of the shard with the given ID, or -1.
func (m Map) ShardByID(id string) int {
	for i, s := range m.Shards {
		if s.ID == id {
			return i
		}
	}
	return -1
}

// WithoutAddrs returns a deep copy with every address cleared — the form
// a shard process is given, which must not depend on knowing where its
// peers live.
func (m Map) WithoutAddrs() Map {
	c := m
	c.Shards = append([]Shard(nil), m.Shards...)
	for i := range c.Shards {
		c.Shards[i].Addr = ""
	}
	return c
}

// Encode renders the map as byte-deterministic JSON: fixed field order
// (encoding/json emits struct fields in declaration order), two-space
// indentation, one trailing newline. Encoding the same map twice yields
// identical bytes, so a map file under version control diffs cleanly and
// a shard can compare documents bytewise.
func (m Map) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ParseMap decodes and validates a map document. The document must be
// the whole input: anything but whitespace after it is refused, so a
// concatenated or half-edited map file never parses as its first part.
func ParseMap(b []byte) (Map, error) {
	var m Map
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Map{}, fmt.Errorf("cluster: parsing map: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Map{}, errors.New("cluster: parsing map: trailing data after the map document")
	}
	if err := m.Validate(); err != nil {
		return Map{}, err
	}
	return m, nil
}

// ReadMap loads and validates a map file.
func ReadMap(path string) (Map, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Map{}, fmt.Errorf("cluster: reading map: %w", err)
	}
	return ParseMap(b)
}
