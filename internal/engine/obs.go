package engine

import "partree/internal/obs"

// engineObs is everything the engine counts: session and lease lifecycle
// events, admission rejections by reason, and step durations by mode.
// The counters exist from New on, so the engine counts whether or not a
// registry is attached; RegisterObs lists them.
type engineObs struct {
	created, reused, evicted *obs.Counter

	rejected                                          *obs.Vec[*obs.Counter]
	rejectedFull, rejectedDraining, rejectedCancelled *obs.Counter // its children, resolved once

	leasesOpened, leasesClosed, leasesEvicted *obs.Counter
	leaseRejected, leaseFallbacks             *obs.Counter
	// stepSeconds is the per-step duration histogram, labeled by mode
	// (update vs rebuild).
	stepSeconds *obs.Vec[*obs.Histogram]
}

func newEngineObs() engineObs {
	rejected := obs.NewCounterVec("partree_engine_rejected_total",
		"Acquires rejected by admission control, by reason.", "reason")
	return engineObs{
		created: obs.NewCounter("partree_engine_sessions_created_total", "Builder sessions constructed (pool misses)."),
		reused:  obs.NewCounter("partree_engine_sessions_reused_total", "Acquires served by a pooled session (pool hits)."),
		evicted: obs.NewCounter("partree_engine_sessions_evicted_total", "Idle sessions evicted past the pool bound (32)."),

		rejected:          rejected,
		rejectedFull:      rejected.With("queue_full"),
		rejectedDraining:  rejected.With("draining"),
		rejectedCancelled: rejected.With("cancelled"),

		leasesOpened:   obs.NewCounter("partree_session_opened_total", "Streaming session leases opened."),
		leasesClosed:   obs.NewCounter("partree_session_closed_total", "Session leases closed by their owner (or by drain)."),
		leasesEvicted:  obs.NewCounter("partree_session_evicted_total", "Session leases evicted by their idle timer."),
		leaseRejected:  obs.NewCounter("partree_session_rejected_total", "Session opens rejected (lease capacity or draining)."),
		leaseFallbacks: obs.NewCounter("partree_session_fallbacks_total", "Policy-triggered SPACE rebuilds inside live sessions."), // the policy is core.Stepper's rebuild rule
		stepSeconds: obs.NewHistogramVec("partree_session_step_seconds",
			"Session step wall time, by serving mode (incremental update vs fresh rebuild).",
			obs.ExpBuckets(1e-5, 2, 20), "mode"),
	}
}

// RegisterObs exposes the pool on reg: what the engine counts, the
// admission gauges, the partree_store_* gauges aggregating octree
// storage retained across every pooled session — exactly the memory
// session pooling trades for allocation-free steady state. Call once per
// (engine, registry) pair.
func (e *Engine) RegisterObs(reg *obs.Registry) error {
	return reg.Register(
		e.created, e.reused, e.evicted,
		obs.NewGaugeFunc("partree_engine_sessions_idle", "Sessions pooled and ready for reuse.",
			func() float64 {
				e.mu.Lock()
				defer e.mu.Unlock()
				return float64(e.lru.Len())
			}),
		obs.NewGaugeFunc("partree_engine_sessions_in_use", "Sessions exclusively held by running builds.",
			func() float64 { return float64(e.inUse.Load()) }),
		obs.NewGaugeFunc("partree_engine_queue_depth", "Acquires admitted and waiting for a build slot.",
			func() float64 { return float64(e.queued.Load()) }),
		obs.NewGaugeFunc("partree_engine_max_active", "Concurrent-build bound (admission capacity).",
			func() float64 { return float64(e.opts.MaxActive) }),
		obs.NewGaugeFunc("partree_engine_draining", "1 once Drain has begun, 0 before.",
			func() float64 {
				if e.isDraining() {
					return 1
				}
				return 0
			}),
		e.rejected,
		e.leasesOpened, e.leasesClosed, e.leasesEvicted, e.leaseRejected, e.leaseFallbacks,
		obs.NewGaugeFunc("partree_session_active", "Session leases currently open.",
			func() float64 {
				e.mu.Lock()
				defer e.mu.Unlock()
				return float64(len(e.leases))
			}),
		obs.NewGaugeFunc("partree_session_max_leases", "Lease capacity (MaxLeases; -1 = unbounded).",
			func() float64 { return float64(e.opts.MaxLeases) }),
		e.stepSeconds,
		storeCollector{e},
	)
}

// storeCollector aggregates octree.Store.Stats over every live session
// at scrape time (atomic loads only; cheap relative to a scrape).
type storeCollector struct{ e *Engine }

// Collect implements obs.Collector.
func (c storeCollector) Collect(out []obs.Family) []obs.Family {
	st := c.e.Stats().Store
	gauge := func(name, help string, v int64) obs.Family {
		return obs.Family{Name: name, Help: help, Type: obs.TypeGauge,
			Series: []obs.Series{{Value: float64(v)}}}
	}
	return append(out,
		gauge("partree_store_cells", "Live cells across pooled sessions' stores.", st.Cells),
		gauge("partree_store_leaves", "Live leaves across pooled sessions' stores.", st.Leaves),
		gauge("partree_store_cell_chunks", "Installed cell chunks retained across resets.", st.CellChunks),
		gauge("partree_store_leaf_chunks", "Installed leaf chunks retained across resets.", st.LeafChunks),
		gauge("partree_store_retained_bytes", "Chunk memory retained by pooled sessions' stores.", st.RetainedBytes),
	)
}
