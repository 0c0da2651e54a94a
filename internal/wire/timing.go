package wire

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"partree/internal/reqtrace"
)

// Timing renders a request's station totals — or a step's, the
// difference of two snapshots — as the served breakdown: queue wait,
// tree build (bounds + insert), moments pass, and total, the elapsed
// time the caller measured. /v1/build's Server-Timing header and a
// session step's timing record both come from here.
func Timing(t reqtrace.Totals, total time.Duration) StepTiming {
	ms := func(ns int64) float64 { return reqtrace.Ms(time.Duration(ns)) }
	return StepTiming{
		QueueMs:   ms(t[reqtrace.Queue]),
		BuildMs:   ms(t[reqtrace.Bounds] + t[reqtrace.Insert]),
		MomentsMs: ms(t[reqtrace.Moments]),
		TotalMs:   reqtrace.Ms(total),
	}
}

// ServerTiming renders a breakdown as a Server-Timing header value, all
// in milliseconds.
func ServerTiming(t StepTiming) string {
	return fmt.Sprintf("queue;dur=%.3f, build;dur=%.3f, moments;dur=%.3f, total;dur=%.3f",
		t.QueueMs, t.BuildMs, t.MomentsMs, t.TotalMs)
}

// ParseServerTiming extracts the dur= values from a Server-Timing
// header ("queue;dur=0.012, build;dur=1.5, ...") as metric→ms.
func ParseServerTiming(v string) map[string]float64 {
	out := map[string]float64{}
	for _, part := range strings.Split(v, ",") {
		name, attrs, ok := strings.Cut(strings.TrimSpace(part), ";")
		if !ok {
			continue
		}
		for _, attr := range strings.Split(attrs, ";") {
			if ms, found := strings.CutPrefix(strings.TrimSpace(attr), "dur="); found {
				if f, err := strconv.ParseFloat(ms, 64); err == nil {
					out[name] = f
				}
			}
		}
	}
	return out
}
