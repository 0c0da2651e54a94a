package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"partree/internal/engine"
	"partree/internal/obs"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/reqtrace"
	"partree/internal/runner"
	"partree/internal/vec"
)

// BodyState is the per-body state a shard keeps resident and the
// handoff protocol ships between shards when a body crosses a range
// boundary. It is deliberately the minimal physical state: position
// (which decides ownership), velocity, and mass.
type BodyState struct {
	Pos  [3]float64 `json:"pos"`
	Vel  [3]float64 `json:"vel"`
	Mass float64    `json:"mass"`
}

// ShardBuildRequest is the shard-level build call: the sender's map
// version plus the full cluster spec. Every shard receives the same
// spec; each deterministically regenerates the full body set, keys it
// against the shared domain, and builds only its owned subset — the
// cluster analogue of SPLASH's "all processors read the shared body
// array, each builds its part".
type ShardBuildRequest struct {
	MapVersion int         `json:"map_version"`
	Spec       runner.Spec `json:"spec"`
	// Transient builds measure without establishing residency. Sweep
	// builds set it: a sweep fans out many specs concurrently, and
	// letting each build replace the resident set would leave shards
	// holding subsets of *different* body sets — whichever spec's build
	// finished last on each shard — breaking the single-residency
	// invariant across the fleet.
	Transient bool `json:"transient,omitempty"`
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

// MoveRequest asks the shard to apply a new position to a resident
// body. If the new position keys outside the shard's range, the shard
// evicts the body and answers a handoff instead of keeping state it no
// longer owns.
type MoveRequest struct {
	MapVersion int        `json:"map_version"`
	Body       int32      `json:"body"`
	Pos        [3]float64 `json:"pos"`
}

// Move statuses.
const (
	MoveOK      = "ok"      // body stayed; position updated in place
	MoveAbsent  = "absent"  // body is not resident here
	MoveHandoff = "handoff" // body evicted; State must be delivered to Key's owner
)

// MoveResponse is the shard's answer to a move (or accept).
type MoveResponse struct {
	Status string     `json:"status"`
	Shard  string     `json:"shard"`
	Body   int32      `json:"body"`
	Key    uint64     `json:"key,omitempty"`
	State  *BodyState `json:"state,omitempty"`
}

// AcceptRequest delivers an evicted body's state to its new owner. A
// shard that is not the owner under its own map answers 421
// (Misdirected Request) so a routing bug can never split a body across
// two shards.
type AcceptRequest struct {
	MapVersion int       `json:"map_version"`
	Body       int32     `json:"body"`
	State      BodyState `json:"state"`
}

// ShardInfo is the GET /v1/shard document.
type ShardInfo struct {
	ID         string `json:"id"`
	MapVersion int    `json:"map_version"`
	Lo         uint64 `json:"lo"`
	Hi         uint64 `json:"hi"`
	Resident   int    `json:"resident"`
}

// BodyDoc is the GET /v1/shard/body answer, used by tests and the smoke
// script to assert a handed-off body lives in exactly one shard.
type BodyDoc struct {
	Present bool       `json:"present"`
	Shard   string     `json:"shard"`
	Body    int32      `json:"body"`
	State   *BodyState `json:"state,omitempty"`
}

// ShardServer owns one Morton range of the cluster: it serves shard-
// level builds through the process's engine (so the engine's admission
// control composes shard by shard), keeps the resident body states for
// its range, and enforces the handoff protocol with Map.Locate.
type ShardServer struct {
	m   Map
	idx int
	eng *engine.Engine

	// A build leaves its residency as (owned, ownedOf): the indices it
	// built and the body set they index. Build-only traffic never reads
	// a body's state, so the map is materialised from the pair by the
	// first request that does (states); while ownedOf != nil the pair is
	// the residency and resident is stale.
	mu       sync.Mutex
	resident map[int32]BodyState
	owned    []int32
	ownedOf  *phys.Bodies
	memoKey  bodiesKey
	memo     *phys.Bodies

	builds    *obs.Counter
	built     *obs.Counter
	handoffs  *obs.Counter
	accepts   *obs.Counter
	conflicts *obs.Counter
	redirects *obs.Counter
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
		resident:  make(map[int32]BodyState),
		builds:    obs.NewCounter("partree_shard_builds_total", "Shard-level builds served."),
		built:     obs.NewCounter("partree_shard_bodies_built_total", "Bodies loaded into trees by shard-level builds (last repetition of each)."),
		handoffs:  obs.NewCounter("partree_shard_handoffs_total", "Bodies evicted because a move keyed them outside the owned range."),
		accepts:   obs.NewCounter("partree_shard_accepts_total", "Bodies accepted into residency from a handoff."),
		conflicts: obs.NewCounter("partree_shard_version_conflicts_total", "Requests refused with 409 for carrying a different map version."),
		redirects: obs.NewCounter("partree_shard_misdirects_total", "Accepts refused with 421 because this shard does not own the body's key."),
	}
	return s, nil
}

// ID returns the shard's map ID.
func (s *ShardServer) ID() string { return s.m.Shards[s.idx].ID }

// Resident returns the number of resident bodies.
func (s *ShardServer) Resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ownedOf != nil {
		return len(s.owned)
	}
	return len(s.resident)
}

// states returns the resident map, first materialising it from the last
// build's owned set if nothing has since the build. Callers hold s.mu.
func (s *ShardServer) states() map[int32]BodyState {
	if all := s.ownedOf; all != nil {
		s.resident = make(map[int32]BodyState, len(s.owned))
		for _, i := range s.owned {
			s.resident[i] = BodyState{
				Pos:  [3]float64{all.Pos[i].X, all.Pos[i].Y, all.Pos[i].Z},
				Vel:  [3]float64{all.Vel[i].X, all.Vel[i].Y, all.Vel[i].Z},
				Mass: all.Mass[i],
			}
		}
		s.owned, s.ownedOf = nil, nil
	}
	return s.resident
}

// ResidentIDs returns the resident body ids in ascending order (tests
// and debugging; the serving path never needs the full list).
func (s *ShardServer) ResidentIDs() []int32 {
	s.mu.Lock()
	resident := s.states()
	ids := make([]int32, 0, len(resident))
	for id := range resident {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// RegisterObs registers the partree_shard_* families.
func (s *ShardServer) RegisterObs(reg *obs.Registry) error {
	return reg.Register(
		s.builds, s.built, s.handoffs, s.accepts, s.conflicts, s.redirects,
		obs.NewGaugeFunc("partree_shard_resident", "Bodies currently resident in this shard's range.",
			func() float64 { return float64(s.Resident()) }),
	)
}

// Mount registers the shard routes on mux behind rec's request envelope
// (a nil rec still gives each request its ID and access-log line), so a
// call the router makes on a client's behalf is filed under that
// client's request ID here too.
func (s *ShardServer) Mount(mux *http.ServeMux, rec *reqtrace.Recorder) {
	rec.Handle(mux, http.MethodGet, "/v1/shard", "GET the shard info document", s.handleInfo)
	rec.Handle(mux, http.MethodPost, "/v1/shard/build", "POST a ShardBuildRequest JSON document", s.handleBuild)
	rec.Handle(mux, http.MethodPost, "/v1/shard/move", "POST a MoveRequest JSON document", s.handleMove)
	rec.Handle(mux, http.MethodPost, "/v1/shard/accept", "POST an AcceptRequest JSON document", s.handleAccept)
	rec.Handle(mux, http.MethodGet, "/v1/shard/body", "GET with ?id=<body>", s.handleBody)
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
	writeJSON(w, ShardInfo{ID: sh.ID, MapVersion: s.m.Version, Lo: sh.Lo, Hi: sh.Hi, Resident: s.Resident()})
}

func (s *ShardServer) handleBody(w http.ResponseWriter, req *http.Request) {
	id, err := strconv.ParseInt(req.URL.Query().Get("id"), 10, 32)
	if err != nil {
		reqtrace.WriteError(w, http.StatusBadRequest, "id must be a body index")
		return
	}
	s.mu.Lock()
	st, ok := s.states()[int32(id)]
	s.mu.Unlock()
	doc := BodyDoc{Present: ok, Shard: s.ID(), Body: int32(id)}
	if ok {
		doc.State = &st
	}
	writeJSON(w, doc)
}

// bodiesKey names a deterministic body set.
type bodiesKey struct {
	model phys.Model
	n     int
	seed  int64
}

// bodiesFor regenerates (or reuses) the deterministic full body set for
// a vetted spec. One memo entry suffices: cluster traffic repeats one
// spec shape at a time, and regeneration is always correct.
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

func (s *ShardServer) handleBuild(w http.ResponseWriter, req *http.Request) {
	arrived := time.Now()
	var br ShardBuildRequest
	if err := json.NewDecoder(req.Body).Decode(&br); err != nil {
		reqtrace.WriteError(w, http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err))
		return
	}
	if !s.checkVersion(w, br.MapVersion) {
		return
	}
	// The cluster tier executes real shard-local builds; the simulated
	// backend has no meaning here, so the field is pinned rather than
	// silently defaulting to a simulation.
	spec, err := runner.VetServiceSpec(br.Spec, true)
	if err != nil {
		reqtrace.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	all := s.bodiesFor(spec)
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
		r := runner.BuildOnly(req.Context(), spec, subset(all, owned), s.eng)
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

	// A completed build establishes residency: the shard now holds the
	// state of exactly the bodies it built. Transient builds (sweeps)
	// skip this — concurrent specs would otherwise race to be the
	// shard's resident set.
	if !res.Failed() && !br.Transient {
		s.mu.Lock()
		s.owned, s.ownedOf = owned, all
		s.mu.Unlock()
	}
	writeJSON(w, res)
}

// vecOf converts the JSON-stable triple into the geometric type.
func vecOf(p [3]float64) vec.V3 {
	return vec.V3{X: p[0], Y: p[1], Z: p[2]}
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

func (s *ShardServer) handleMove(w http.ResponseWriter, req *http.Request) {
	var mr MoveRequest
	if err := json.NewDecoder(req.Body).Decode(&mr); err != nil {
		reqtrace.WriteError(w, http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err))
		return
	}
	if !s.checkVersion(w, mr.MapVersion) {
		return
	}
	pos := vecOf(mr.Pos)

	s.mu.Lock()
	resident := s.states()
	st, ok := resident[mr.Body]
	if !ok {
		s.mu.Unlock()
		writeJSON(w, MoveResponse{Status: MoveAbsent, Shard: s.ID(), Body: mr.Body})
		return
	}
	st.Pos = mr.Pos
	key, owns := s.m.Locate(s.idx, pos)
	if owns {
		resident[mr.Body] = st
		s.mu.Unlock()
		writeJSON(w, MoveResponse{Status: MoveOK, Shard: s.ID(), Body: mr.Body, Key: key})
		return
	}
	// The new position keys outside our range: evict now — keeping state
	// we no longer own is how a body ends up in two shards — and hand the
	// state back for delivery to the key's owner.
	delete(resident, mr.Body)
	s.mu.Unlock()
	s.handoffs.Inc()
	writeJSON(w, MoveResponse{Status: MoveHandoff, Shard: s.ID(), Body: mr.Body, Key: key, State: &st})
}

func (s *ShardServer) handleAccept(w http.ResponseWriter, req *http.Request) {
	var ar AcceptRequest
	if err := json.NewDecoder(req.Body).Decode(&ar); err != nil {
		reqtrace.WriteError(w, http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err))
		return
	}
	if !s.checkVersion(w, ar.MapVersion) {
		return
	}
	key, owns := s.m.Locate(s.idx, vecOf(ar.State.Pos))
	if !owns {
		// Misdirected: accepting would claim a key another shard owns.
		me := s.m.Shards[s.idx]
		s.redirects.Inc()
		reqtrace.WriteError(w, http.StatusMisdirectedRequest,
			fmt.Sprintf("cluster: body %d key %#x outside shard range [%#x, %#x)", ar.Body, key, me.Lo, me.Hi))
		return
	}
	s.mu.Lock()
	s.states()[ar.Body] = ar.State
	s.mu.Unlock()
	s.accepts.Inc()
	writeJSON(w, MoveResponse{Status: MoveOK, Shard: s.ID(), Body: ar.Body, Key: key})
}
