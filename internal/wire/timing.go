package wire

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"partree/internal/reqtrace"
)

// ServerTiming renders a request's station breakdown as a Server-Timing
// header value: queue wait, tree build (bounds+insert), moments pass,
// and total elapsed, all in milliseconds.
func ServerTiming(queue, build, moments, total time.Duration) string {
	return fmt.Sprintf("queue;dur=%.3f, build;dur=%.3f, moments;dur=%.3f, total;dur=%.3f",
		reqtrace.Ms(queue), reqtrace.Ms(build), reqtrace.Ms(moments), reqtrace.Ms(total))
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
