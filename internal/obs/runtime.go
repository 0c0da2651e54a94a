package obs

import (
	"runtime"
	"sync"
	"time"
)

// runtimeCollector exposes Go runtime health — goroutines, heap, GC —
// sampled once per scrape. ReadMemStats costs a stop-the-world on the
// order of tens of microseconds, so it runs at scrape frequency (human
// or Prometheus driven), never on the build hot path, and at most once
// per second even if something scrapes in a tight loop. Scrapes may
// run concurrently (one HTTP handler per connection), so mu guards the
// cached sample.
type runtimeCollector struct {
	minInterval time.Duration
	mu          sync.Mutex
	lastSample  time.Time
	last        runtime.MemStats
}

// RegisterRuntime adds the Go runtime gauges (go_goroutines,
// go_mem_heap_alloc_bytes, go_gc_pause_seconds_total, …) to reg.
func RegisterRuntime(reg *Registry) {
	reg.MustRegister(&runtimeCollector{minInterval: time.Second})
}

// Collect implements Collector.
func (rc *runtimeCollector) Collect(out []Family) []Family {
	rc.mu.Lock()
	if time.Since(rc.lastSample) >= rc.minInterval {
		runtime.ReadMemStats(&rc.last)
		rc.lastSample = time.Now()
	}
	m := rc.last
	rc.mu.Unlock()
	gauge := func(name, help string, v float64) {
		out = append(out, Family{Name: name, Help: help, Type: TypeGauge,
			Series: []Series{{Value: v}}})
	}
	counter := func(name, help string, v float64) {
		out = append(out, Family{Name: name, Help: help, Type: TypeCounter,
			Series: []Series{{Value: v}}})
	}
	gauge("go_goroutines", "Number of live goroutines.", float64(runtime.NumGoroutine()))
	gauge("go_threads", "Number of OS threads created.", float64(threadCount()))
	gauge("go_mem_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(m.HeapAlloc))
	gauge("go_mem_heap_sys_bytes", "Bytes of heap obtained from the OS.", float64(m.HeapSys))
	gauge("go_mem_heap_objects", "Number of allocated heap objects.", float64(m.HeapObjects))
	gauge("go_mem_stack_inuse_bytes", "Bytes in stack spans in use.", float64(m.StackInuse))
	gauge("go_mem_next_gc_bytes", "Heap size target of the next GC cycle.", float64(m.NextGC))
	counter("go_mem_alloc_bytes_total", "Cumulative bytes allocated for heap objects.", float64(m.TotalAlloc))
	counter("go_mem_mallocs_total", "Cumulative count of heap allocations.", float64(m.Mallocs))
	counter("go_gc_cycles_total", "Completed GC cycles.", float64(m.NumGC))
	counter("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.",
		float64(m.PauseTotalNs)/1e9)
	gauge("go_gc_cpu_fraction", "Fraction of CPU time used by the GC since program start.", m.GCCPUFraction)
	return out
}

func threadCount() int {
	n, _ := runtime.ThreadCreateProfile(nil)
	return n
}
