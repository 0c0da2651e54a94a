package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Replayable traffic traces: one JSON object per line, ascending virtual
// timestamps. The format is the loadgen's interchange: a generated
// schedule can be written out (-trace-out), inspected or edited, and
// replayed bit-for-bit (-trace-in), which is what makes an experiment's
// traffic reproducible independently of the process parameters that
// produced it.
//
//	{"at_ns":0,"op":"session"}
//	{"at_ns":12500000,"op":"session"}
//
// at_ns is the virtual-time offset from the start of the run. op is
// optional free-form ("session", "build"); replays that care filter on
// it, replays that don't ignore it.

// Event is one traced arrival.
type Event struct {
	AtNs int64  `json:"at_ns"`
	Op   string `json:"op,omitempty"`
}

// At returns the event's virtual-time offset.
func (e Event) At() time.Duration { return time.Duration(e.AtNs) }

// EventsFromOffsets converts a schedule into trace events with one op.
func EventsFromOffsets(offsets []time.Duration, op string) []Event {
	out := make([]Event, len(offsets))
	for i, t := range offsets {
		out[i] = Event{AtNs: int64(t), Op: op}
	}
	return out
}

// Offsets extracts the virtual schedule from trace events.
func Offsets(evs []Event) []time.Duration {
	out := make([]time.Duration, len(evs))
	for i, e := range evs {
		out[i] = e.At()
	}
	return out
}

// WriteTrace writes events as NDJSON. Encoding is canonical (fixed field
// order, no indent), so identical schedules produce identical bytes.
func WriteTrace(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, e := range evs {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("workload: trace event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses an NDJSON trace. Every malformed line is a
// line-numbered error, including one with anything after its event
// object; timestamps must be non-negative and non-decreasing (a trace is
// a schedule, not a log). Blank lines are allowed so hand-edited traces
// stay forgiving.
func ReadTrace(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var out []Event
	line := 0
	prev := int64(-1)
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %v", line, err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return nil, fmt.Errorf("workload: trace line %d: trailing data after the event", line)
		}
		if e.AtNs < 0 {
			return nil, fmt.Errorf("workload: trace line %d: at_ns %d is negative", line, e.AtNs)
		}
		if e.AtNs < prev {
			return nil, fmt.Errorf("workload: trace line %d: at_ns %d goes backwards (previous %d)", line, e.AtNs, prev)
		}
		prev = e.AtNs
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace after line %d: %w", line, err)
	}
	return out, nil
}
