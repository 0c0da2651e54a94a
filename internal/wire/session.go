// Package wire declares, once, the bytes partreed's clients and the
// daemon agree on beyond plain runner.Spec/Result JSON: the /v1/session
// NDJSON records with the open record's validation, the Server-Timing
// header codec, and the full-duplex stream client. The daemon (server
// side), loadgen (client side) and the daemon's tests all import it, so
// a field exists in one struct tag. benchmark/serve.go deliberately
// keeps a private copy of the same records: it cannot see this package
// change, which makes it the byte-compatibility witness.
package wire

import (
	"encoding/json"
	"fmt"
	"runtime"

	"partree/internal/octree"
	"partree/internal/phys"
	"partree/internal/runner"
)

// SessionOpen is the stream's first client record.
type SessionOpen struct {
	Procs   int `json:"procs"`
	Bodies  int `json:"bodies"`
	LeafCap int `json:"leaf_cap,omitempty"`
	// Model is any phys mass model (plummer, uniform, twoclusters,
	// disk, hierarchical); empty selects plummer.
	Model string  `json:"model,omitempty"`
	Seed  int64   `json:"seed"`
	Dt    float64 `json:"dt,omitempty"` // drift timestep for {"drift":true} records
	// Check verifies every step's tree against the octree invariants
	// (canonical vs a serial rebuild on fresh steps) before answering.
	Check         bool  `json:"check,omitempty"`
	IdleTimeoutMs int64 `json:"idle_timeout_ms,omitempty"`
}

// SessionStep is one client timestep record. One body motion (drift or
// collapse) is typical but none is required: an empty record re-times
// the tree over unchanged bodies.
type SessionStep struct {
	// Drift advances positions by the session dt along current
	// velocities — cheap server-side evolution.
	Drift bool `json:"drift,omitempty"`
	// Collapse pulls bodies toward the origin with a free-fall-like
	// profile (outer shells fall faster): r ← r/(1+c·|r|). A synthetic
	// high-churn motion that decays a resident tree fast.
	Collapse float64 `json:"collapse,omitempty"`
	// Rebuild forces a fresh SPACE rebuild this step.
	Rebuild bool `json:"rebuild,omitempty"`
	// Close ends the session after acknowledging.
	Close bool `json:"close,omitempty"`
}

// Server→client records. Every stream line carries "event".
type SessionOpened struct {
	Event   string `json:"event"` // "opened"
	N       int    `json:"n"`
	Procs   int    `json:"procs"`
	LeafCap int    `json:"leaf_cap"`
	IdleMs  int64  `json:"idle_ms"`
}

type SessionStepResult struct {
	Event string `json:"event"` // "step"
	Step  int    `json:"step"`
	// Mode is "update" (incremental repair) or "rebuild" (fresh build).
	Mode string `json:"mode"`
	// Reason names why a rebuild step started fresh ("" on updates).
	Reason string `json:"reason,omitempty"`
	// Fallback marks a rebuild the session's rebuild rule asked for:
	// repairs had slowed, since the last fresh tree, by as much time as
	// that tree took to build.
	Fallback bool    `json:"fallback,omitempty"`
	Moved    int64   `json:"moved"`
	Churn    float64 `json:"churn"`
	Locks    int64   `json:"locks"`
	BuildNs  int64   `json:"build_ns"`
	Verified bool    `json:"verified,omitempty"`
	// Timing is this step's station breakdown — the in-stream
	// equivalent of /v1/build's Server-Timing header.
	Timing *StepTiming `json:"timing,omitempty"`
}

// StepTiming is a served latency breakdown in fractional milliseconds
// (Timing renders it): build-slot queue wait, tree build
// (bounds+insert), moments pass, and total wall time as the handler saw
// it — a session step's timing record, and /v1/build's Server-Timing.
type StepTiming struct {
	QueueMs   float64 `json:"queue_ms"`
	BuildMs   float64 `json:"build_ms"`
	MomentsMs float64 `json:"moments_ms"`
	TotalMs   float64 `json:"total_ms"`
}

type SessionClosed struct {
	Event     string `json:"event"` // "closed"
	Steps     int    `json:"steps"`
	Fallbacks int    `json:"fallbacks"`
	Reason    string `json:"reason,omitempty"`
}

type SessionError struct {
	Event string `json:"event"` // "error"
	Error string `json:"error"`
}

// SessionRecord is one server stream line as a client reads it: Event
// names which of the four records the line was, and only that one is
// filled.
type SessionRecord struct {
	Event  string
	Opened SessionOpened
	Step   SessionStepResult
	Closed SessionClosed
	Err    SessionError
}

func (r *SessionRecord) UnmarshalJSON(line []byte) error {
	var head struct {
		Event string `json:"event"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return err
	}
	*r = SessionRecord{Event: head.Event}
	switch head.Event {
	case "opened":
		return json.Unmarshal(line, &r.Opened)
	case "step":
		return json.Unmarshal(line, &r.Step)
	case "closed":
		return json.Unmarshal(line, &r.Closed)
	case "error":
		return json.Unmarshal(line, &r.Err)
	}
	return nil
}

// DecodeSessionOpen reads and validates the open record, defaulting an
// empty model to plummer. A streamed request must not be able to
// allocate unbounded server memory, so the record is held to the
// one-shot specs' limits. A field the record does not declare is refused
// rather than ignored: a misspelt or retired option would otherwise
// silently run a session other than the one asked for. The refusal
// holds for every later record dec reads.
func DecodeSessionOpen(dec *json.Decoder) (SessionOpen, phys.Model, error) {
	var o SessionOpen
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o); err != nil {
		return o, 0, fmt.Errorf("parsing open record: %v", err)
	}
	if o.Bodies <= 0 || o.Bodies > runner.MaxServiceBodies {
		return o, 0, fmt.Errorf("bodies must be in 1..%d, got %d", runner.MaxServiceBodies, o.Bodies)
	}
	if o.Procs <= 0 {
		o.Procs = 1
	}
	if o.Procs > runner.MaxServiceProcsPerCPU*runtime.GOMAXPROCS(0) {
		return o, 0, fmt.Errorf("procs %d exceeds %dx GOMAXPROCS", o.Procs, runner.MaxServiceProcsPerCPU)
	}
	if o.Procs > octree.MaxArenas {
		return o, 0, fmt.Errorf("procs %d exceeds the builders' limit %d", o.Procs, octree.MaxArenas)
	}
	if o.LeafCap <= 0 {
		o.LeafCap = 8
	}
	if o.LeafCap > runner.MaxServiceLeafCap {
		return o, 0, fmt.Errorf("leaf_cap %d exceeds the service limit %d", o.LeafCap, runner.MaxServiceLeafCap)
	}
	if o.Dt == 0 {
		o.Dt = 0.01
	}
	if o.Model == "" {
		o.Model = phys.ModelPlummer.String()
	}
	model, ok := phys.ParseModel(o.Model)
	if !ok {
		return o, 0, fmt.Errorf("unknown model %q", o.Model)
	}
	return o, model, nil
}

// DecodeSessionStep reads one timestep record, refusing a field the
// record does not declare and a negative collapse (a {"drfit": true} or
// a {"collapse": -0.05} would otherwise re-time an unchanged tree). The
// stream's clean end stays recognisable: errors.Is(err, io.EOF).
func DecodeSessionStep(dec *json.Decoder) (SessionStep, error) {
	var s SessionStep
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("parsing step record: %w", err)
	}
	if s.Collapse < 0 {
		return s, fmt.Errorf("step record: collapse %g is negative", s.Collapse)
	}
	return s, nil
}
