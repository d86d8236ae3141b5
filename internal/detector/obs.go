package detector

import (
	"sync/atomic"

	"repro/internal/obs"
)

// obsCounters are the detector's always-on activity counters beyond the
// Signals/Detections/RuleFires stats shards: signal outcomes on the
// lock-free fast path, batch signalling volume, and flush fan-out. They
// are plain atomics bumped inline (no registry indirection), so the fast
// path pays exactly one uncontended atomic add per signal; the registry
// reads them through CounterFuncs at snapshot time.
type obsCounters struct {
	fastHits    atomic.Uint64 // signals fully consumed on the fast path
	fastNoSub   atomic.Uint64 // signals dropped lock-free: no subscriber
	fastStale   atomic.Uint64 // fast-path attempts retried on a stale index
	maskedDrops atomic.Uint64 // signals dropped because their transaction was masked
	batches     atomic.Uint64 // SignalBatch calls
	batchOccs   atomic.Uint64 // occurrences submitted through SignalBatch
	txnFlushes  atomic.Uint64 // transaction flushes (commit/abort fan-out)
	flushFanout atomic.Uint64 // components visited by transaction flushes
	flushNodes  atomic.Uint64 // nodes visited by transaction flushes

	nodesShared   atomic.Uint64 // registrations satisfied by an existing node
	nodesReleased atomic.Uint64 // nodes collected by the refcount release path
}

// SharedNodes returns how many node registrations were satisfied by an
// existing structurally identical node — the subexpression-sharing hit
// count the rule-scale benchmarks assert against.
func (d *Detector) SharedNodes() uint64 { return d.obs.nodesShared.Load() }

// LiveNodes returns the number of distinct nodes currently in the graph,
// maintained incrementally on build and release.
func (d *Detector) LiveNodes() int64 { return d.liveNodes.Load() }

// ReleasedNodes returns how many nodes the refcount release path has
// collected.
func (d *Detector) ReleasedNodes() uint64 { return d.obs.nodesReleased.Load() }

// ComponentStats reports the event graph's sharding shape: the number of
// root (live) components, the number of distinct named nodes, and the
// node count of the largest component — the occupancy numbers behind the
// parallel-propagation design (DESIGN.md §7).
func (d *Detector) ComponentStats() (comps, nodes, maxNodes int) {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	d.forEachNodeByComp(func(_ *component, ns []Node) {
		comps++
		nodes += len(ns)
		if len(ns) > maxNodes {
			maxNodes = len(ns)
		}
	})
	return comps, nodes, maxNodes
}

// TimerEntries reports how many temporal-operator timers are pending
// across all components (the aggregate timer-heap depth).
func (d *Detector) TimerEntries() int {
	d.structMu.Lock()
	defer d.structMu.Unlock()
	n := 0
	for _, root := range d.rootComps() {
		root.mu.Lock()
		n += len(root.timers)
		root.mu.Unlock()
	}
	return n
}

// RegisterMetrics wires the detector into a metrics registry. The
// counters are read-through views over the detector's existing atomics
// (the stats shards summed by StatsSnapshot and the fast-path outcome
// counters), so registering adds no cost to signalling; the gauges sample
// graph shape under the structure lock at scrape time only.
func (d *Detector) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("sentinel_detector_signals_total",
		"Primitive occurrences that entered the event graph.",
		func() uint64 { return d.StatsSnapshot().Signals })
	r.CounterFunc("sentinel_detector_detections_total",
		"Composite occurrences emitted by operator nodes.",
		func() uint64 { return d.StatsSnapshot().Detections })
	r.CounterFunc("sentinel_detector_rule_notifies_total",
		"Rule subscriber notifications.",
		func() uint64 { return d.StatsSnapshot().RuleFires })
	r.CounterFunc("sentinel_detector_fastpath_hits_total",
		"Signals fully consumed on the lock-free fast path.",
		d.obs.fastHits.Load)
	r.CounterFunc("sentinel_detector_fastpath_nosub_total",
		"Signals dropped lock-free because nothing subscribes to them.",
		d.obs.fastNoSub.Load)
	r.CounterFunc("sentinel_detector_fastpath_stale_total",
		"Fast-path attempts that found a stale admission index and were retried on the serialized path.",
		d.obs.fastStale.Load)
	r.CounterFunc("sentinel_detector_masked_drops_total",
		"Signals dropped because their transaction was masked (raised by a rule condition while it ran).",
		d.obs.maskedDrops.Load)
	r.CounterFunc("sentinel_detector_batches_total",
		"SignalBatch calls (event-log replay, GED fan-in).",
		d.obs.batches.Load)
	r.CounterFunc("sentinel_detector_batch_occurrences_total",
		"Occurrences submitted through SignalBatch.",
		d.obs.batchOccs.Load)
	r.CounterFunc("sentinel_detector_nodes_shared_total",
		"Node registrations satisfied by an existing structurally identical node (subexpression sharing).",
		d.obs.nodesShared.Load)
	r.CounterFunc("sentinel_detector_nodes_released_total",
		"Nodes collected by the refcount release path after their last hold dropped.",
		d.obs.nodesReleased.Load)
	r.GaugeFunc("sentinel_detector_nodes_live",
		"Distinct nodes currently resident in the event graph (incremental count).",
		func() float64 { return float64(d.liveNodes.Load()) })
	r.CounterFunc("sentinel_detector_txn_flushes_total",
		"Transaction flushes of the event graph (commit/abort boundaries).",
		d.obs.txnFlushes.Load)
	r.CounterFunc("sentinel_detector_flush_fanout_total",
		"Components visited by transaction flushes (fan-out volume).",
		d.obs.flushFanout.Load)
	r.CounterFunc("sentinel_detector_flush_nodes_total",
		"Nodes visited by transaction flushes (how much state the commit/abort flushes touched).",
		d.obs.flushNodes.Load)
	r.GaugeFunc("sentinel_detector_components",
		"Connected components (parallel serialization domains) of the event graph.",
		func() float64 { c, _, _ := d.ComponentStats(); return float64(c) })
	r.GaugeFunc("sentinel_detector_nodes",
		"Distinct named nodes in the event graph.",
		func() float64 { _, n, _ := d.ComponentStats(); return float64(n) })
	r.GaugeFunc("sentinel_detector_component_nodes_max",
		"Node count of the largest component (occupancy skew).",
		func() float64 { _, _, m := d.ComponentStats(); return float64(m) })
	r.GaugeFunc("sentinel_detector_timer_entries",
		"Pending temporal-operator timers across all components (timer-heap depth).",
		func() float64 { return float64(d.TimerEntries()) })
	r.GaugeFunc("sentinel_detector_pending_occurrences",
		"Partial occurrences stored in operator nodes awaiting completion or flush.",
		func() float64 { return float64(d.PendingOccurrences()) })
}
