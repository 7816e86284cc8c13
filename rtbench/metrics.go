package main

import (
	"rtmobile/internal/obs"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the untraced run's metrics; every workload reports all
// of them (see phase for what an operation is on each workload).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_share", "share"},
	{"frame_p50_us", "us"},
	{"frame_p99_us", "us"},
	{"rtf", "ratio"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"frames_per_s", "frames/s"},
}

// perLayer lists the traced run's metrics. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"rtmobile.prune_ms", "ms"},
	{"rtmobile.compile_ms", "ms"},
	{"rtmobile.bundle_save_ms", "ms"},
	{"registry.load_ms", "ms"},
	{"rtmobile.bundle_mb", "MB"},
	{"speech.mfcc_us_per_frame", "us"},
	{"speech.decode_us", "us"},
	{"nn.layer_us.gru0", "us"},
	{"nn.layer_us.gru1", "us"},
	{"nn.layer_us.out", "us"},
	{"nn.matmul_us", "us"},
	{"tensor.epilogue_us", "us"},
	{"rtmobile.plan_macs_per_step", "MACs"},
	{"rtmobile.executed_macs_per_step", "MACs"},
	{"rtmobile.effective_gmacs", "GMAC/s"},
	{"rtmobile.weight_gbps", "GB/s"},
	{"host.mem_gbps", "GB/s"},
	{"compiler.packed_step_us", "us"},
	{"device.model_step_us", "us"},
	{"device.model_error_x", "x"},
	{"parallel.tasks_per_step", "count"},
	{"parallel.busy_share", "share"},
	{"serve.parse_us", "us"},
	{"serve.serialize_us", "us"},
	{"sched.queue_wait_ms.p50", "ms"},
	{"sched.queue_wait_ms.p90", "ms"},
	{"sched.open_width", "lanes"},
	{"sched.panel_width", "lanes"},
	{"sched.dispatches", "count"},
	{"sched.joins", "count"},
	{"sched.rejected", "count"},
	{"rtmobile.batch_step_ms.p50", "ms"},
	{"rtmobile.arena_hit_share", "share"},
	{"rtmobile.lane_step_us", "us"},
	{"serve.gen_lag_ms.p99", "ms"},
	{"rtmobile.panel_width", "lanes"},
	{"rtmobile.serial_frames_per_s", "frames/s"},
	{"obs.overhead_pct", "%"},
	{"fail_share", "share"},
}

// metricSet fills a table's metrics, all starting at 0.
type metricSet map[string]metric

func newMetricSet(table []struct{ name, unit string }) metricSet {
	m := metricSet{}
	for _, e := range table {
		m[e.name] = metric{Unit: e.unit}
	}
	return m
}

// set assigns a value to a metric of the table; an unknown name is a bug.
func (m metricSet) set(name string, v float64) {
	e, ok := m[name]
	if !ok {
		panic("rtbench: metric " + name + " is not in the table")
	}
	e.Value = v
	m[name] = e
}

// obsSnap is a reading of the process-wide obs instruments; deltas of
// two readings attribute the instruments' counts to a phase.
type obsSnap struct {
	poolTasks, poolBusyNs     uint64
	dispatch, joins, rejected uint64
	arenaHits, arenaMisses    uint64
	batchSteps, batchLanes    uint64
	occupancySum              int64
	occupancyCount            uint64
}

func snapObs() obsSnap {
	m := obs.M()
	if m == nil {
		return obsSnap{}
	}
	var busy uint64
	for _, v := range m.PoolBusyNs.Values() {
		busy += v
	}
	occ := m.LaneOccupancy.Snapshot()
	return obsSnap{
		poolTasks: m.PoolTasksTotal.Value(), poolBusyNs: busy,
		dispatch: m.SchedDispatch.Value(), joins: m.SchedJoins.Value(), rejected: m.SchedRejected.Value(),
		arenaHits: m.ArenaHits.Value(), arenaMisses: m.ArenaMisses.Value(),
		batchSteps: m.BatchStepsTotal.Value(), batchLanes: m.BatchLanesTotal.Value(),
		occupancySum: occ.Sum, occupancyCount: occ.Count,
	}
}

// delta is s − before, counter by counter.
func (s obsSnap) delta(before obsSnap) obsSnap {
	return obsSnap{
		poolTasks: s.poolTasks - before.poolTasks, poolBusyNs: s.poolBusyNs - before.poolBusyNs,
		dispatch: s.dispatch - before.dispatch, joins: s.joins - before.joins,
		rejected:  s.rejected - before.rejected,
		arenaHits: s.arenaHits - before.arenaHits, arenaMisses: s.arenaMisses - before.arenaMisses,
		batchSteps: s.batchSteps - before.batchSteps, batchLanes: s.batchLanes - before.batchLanes,
		occupancySum: s.occupancySum - before.occupancySum, occupancyCount: s.occupancyCount - before.occupancyCount,
	}
}

func (s obsSnap) aggregates() map[string]float64 {
	return map[string]float64{
		"parallel.pool_tasks": float64(s.poolTasks), "parallel.pool_busy_ms": float64(s.poolBusyNs) / 1e6,
		"sched.dispatches": float64(s.dispatch), "sched.joins": float64(s.joins), "sched.rejected": float64(s.rejected),
		"rtmobile.arena_hits": float64(s.arenaHits), "rtmobile.arena_misses": float64(s.arenaMisses),
		"rtmobile.batch_steps": float64(s.batchSteps), "rtmobile.batch_lanes": float64(s.batchLanes),
		"sched.lane_occupancy_sum": float64(s.occupancySum), "sched.lane_occupancy_count": float64(s.occupancyCount),
	}
}
