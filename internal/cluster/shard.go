package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"partree/internal/engine"
	"partree/internal/obs"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/reqtrace"
	"partree/internal/runner"
)

// ShardBuildRequest is the shard-level build call: the sender's map
// version plus the full cluster spec. Every shard receives the same
// spec; each deterministically regenerates the full body set, keys it
// against the shared domain, and builds only its owned subset — the
// cluster analogue of SPLASH's "all processors read the shared body
// array, each builds its part".
type ShardBuildRequest struct {
	MapVersion int         `json:"map_version"`
	Spec       runner.Spec `json:"spec"`
}

// ShardBuildResult is one shard's contribution to a merged build: the
// owned body count, the last repetition's tree metrics, and the best-of
// build time, with failures carried in-band like runner.Result. WallNs
// is the build call alone; PrepNs is what the shard spent before it —
// decoding and vetting the request, regenerating the body set and keying
// it for ownership — so a client can tell shard time from router time.
type ShardBuildResult struct {
	Shard        string  `json:"shard"`
	N            int     `json:"n"`
	BodiesBuilt  int64   `json:"bodies_built"`
	TreeNs       float64 `json:"tree_ns"`
	LocksTotal   int64   `json:"locks_total"`
	Retries      int64   `json:"retries,omitempty"`
	Cells        int64   `json:"cells,omitempty"`
	Leaves       int64   `json:"leaves,omitempty"`
	MaxDepth     int64   `json:"max_depth,omitempty"`
	WallNs       int64   `json:"wall_ns"`
	PrepNs       int64   `json:"prep_ns,omitempty"`
	Err          string  `json:"error,omitempty"`
	CheckFailure string  `json:"check_failure,omitempty"`
}

// Failed reports whether the shard's build failed (in-band).
func (r ShardBuildResult) Failed() bool { return r.Err != "" || r.CheckFailure != "" }

// ShardInfo is the GET /v1/shard document.
type ShardInfo struct {
	ID         string `json:"id"`
	MapVersion int    `json:"map_version"`
	Lo         uint64 `json:"lo"`
	Hi         uint64 `json:"hi"`
}

// ShardServer owns one Morton range of the cluster: it serves shard-
// level builds through the process's engine, so the engine's admission
// control composes shard by shard. A build is a pure function of the map
// and the spec; the server keeps no state between requests beyond the
// one-entry body memo.
type ShardServer struct {
	m   Map
	idx int
	eng *engine.Engine

	mu      sync.Mutex
	memoKey bodiesKey
	memo    *phys.Bodies

	builds    *obs.Counter
	built     *obs.Counter
	conflicts *obs.Counter
}

// NewShardServer builds the serving state for shard index idx of the
// map. The map may be addr-less: a shard needs only the shared domain
// and its own range.
func NewShardServer(m Map, idx int, eng *engine.Engine) (*ShardServer, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if idx < 0 || idx >= len(m.Shards) {
		return nil, fmt.Errorf("cluster: shard index %d out of range for %d-shard map", idx, len(m.Shards))
	}
	if eng == nil {
		return nil, fmt.Errorf("cluster: shard server needs an engine")
	}
	s := &ShardServer{
		m:         m,
		idx:       idx,
		eng:       eng,
		builds:    obs.NewCounter("partree_shard_builds_total", "Shard-level builds served."),
		built:     obs.NewCounter("partree_shard_bodies_built_total", "Bodies loaded into trees by shard-level builds (last repetition of each)."),
		conflicts: obs.NewCounter("partree_shard_version_conflicts_total", "Requests refused with 409 for carrying a different map version."),
	}
	return s, nil
}

// ID returns the shard's map ID.
func (s *ShardServer) ID() string { return s.m.Shards[s.idx].ID }

// RegisterObs registers the partree_shard_* families.
func (s *ShardServer) RegisterObs(reg *obs.Registry) error {
	return reg.Register(s.builds, s.built, s.conflicts)
}

// Mount registers the shard routes on mux behind rec's request envelope
// (a nil rec still gives each request its ID and access-log line), so a
// call the router makes on a client's behalf is filed under that
// client's request ID here too.
func (s *ShardServer) Mount(mux *http.ServeMux, rec *reqtrace.Recorder) {
	rec.Handle(mux, http.MethodGet, "/v1/shard", "GET the shard info document", s.handleInfo)
	rec.Handle(mux, http.MethodPost, "/v1/shard/build", "POST a ShardBuildRequest JSON document", s.handleBuild)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// checkVersion enforces the map-version consistency token: any mismatch
// is 409, never a silent misroute on stale ranges.
func (s *ShardServer) checkVersion(w http.ResponseWriter, got int) bool {
	if got != s.m.Version {
		s.conflicts.Inc()
		reqtrace.WriteError(w, http.StatusConflict,
			fmt.Sprintf("map version mismatch: shard %s has %d, request carries %d", s.ID(), s.m.Version, got))
		return false
	}
	return true
}

func (s *ShardServer) handleInfo(w http.ResponseWriter, _ *http.Request) {
	sh := s.m.Shards[s.idx]
	writeJSON(w, ShardInfo{ID: sh.ID, MapVersion: s.m.Version, Lo: sh.Lo, Hi: sh.Hi})
}

// bodiesKey names a deterministic body set.
type bodiesKey struct {
	model phys.Model
	n     int
	seed  int64
}

// bodiesFor regenerates (or reuses) the deterministic full body set for
// a vetted spec. One memo entry suffices: cluster traffic repeats one
// spec shape at a time, and regeneration is always correct. The runner's
// body-set LRU is not used: under unique seeds it would hold dozens of
// full body sets no later request reads.
func (s *ShardServer) bodiesFor(spec runner.Spec) *phys.Bodies {
	model, _ := phys.ParseModel(spec.Model) // vetted: the model parses
	key := bodiesKey{model, spec.Bodies, spec.Seed}
	s.mu.Lock()
	if s.memo != nil && s.memoKey == key {
		b := s.memo
		s.mu.Unlock()
		return b
	}
	s.mu.Unlock()
	b := phys.Generate(model, spec.Bodies, spec.Seed)
	s.mu.Lock()
	s.memoKey, s.memo = key, b
	s.mu.Unlock()
	return b
}

// decodeShardBuild reads one ShardBuildRequest, which must be the whole
// body, and vets its spec (runner.VetServiceSpec). The cluster tier
// executes real shard-local builds; the simulated backend has no
// meaning here, so the field is pinned rather than silently defaulting
// to a simulation.
func decodeShardBuild(r io.Reader) (ShardBuildRequest, error) {
	var br ShardBuildRequest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&br); err != nil {
		return br, fmt.Errorf("parsing request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return br, errors.New("parsing request: trailing data after the request document")
	}
	var err error
	br.Spec, err = runner.VetServiceSpec(br.Spec, true)
	return br, err
}

func (s *ShardServer) handleBuild(w http.ResponseWriter, req *http.Request) {
	arrived := time.Now()
	br, err := decodeShardBuild(req.Body)
	if err != nil {
		reqtrace.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.checkVersion(w, br.MapVersion) {
		return
	}

	all := s.bodiesFor(br.Spec)
	// Key the full set against the *map's* domain — every shard computes
	// identical keys, so the owned subsets tile the body set exactly.
	keyer := partition.NewKeyer(s.m.Domain.Cube())
	me := s.m.Shards[s.idx]
	owned := make([]int32, 0, all.N()/len(s.m.Shards)+1)
	for i, p := range all.Pos {
		if me.Owns(keyer.Key(p)) {
			owned = append(owned, int32(i))
		}
	}

	start := time.Now()
	res := ShardBuildResult{Shard: s.ID(), N: len(owned), PrepNs: start.Sub(arrived).Nanoseconds()}
	if len(owned) > 0 {
		// The owned subset is private to this request, so the build
		// runs on it in place.
		r := runner.BuildOnly(req.Context(), br.Spec, subset(all, owned), s.eng)
		res.BodiesBuilt, res.TreeNs = r.BodiesBuilt, r.TreeNs
		res.LocksTotal, res.Retries = r.LocksTotal, r.Retries
		res.Cells, res.Leaves, res.MaxDepth = r.Cells, r.Leaves, r.MaxDepth
		res.Err, res.CheckFailure = r.Err, r.CheckFailure
	}
	res.WallNs = time.Since(start).Nanoseconds()
	if engine.Rejected(res.Err) {
		reqtrace.WriteError(w, http.StatusServiceUnavailable, res.Err)
		return
	}
	s.builds.Inc()
	s.built.Add(float64(res.BodiesBuilt))
	writeJSON(w, res)
}

// subset copies the owned bodies out of the full set.
func subset(all *phys.Bodies, owned []int32) *phys.Bodies {
	sub := phys.NewBodies(len(owned))
	for j, i := range owned {
		sub.Pos[j] = all.Pos[i]
		sub.Vel[j] = all.Vel[i]
		sub.Acc[j] = all.Acc[i]
		sub.Mass[j] = all.Mass[i]
		sub.Cost[j] = all.Cost[i]
	}
	return sub
}
