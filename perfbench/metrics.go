package main

// metric declares one benchmark metric. The catalogue below and
// BENCHMARK.json must agree; TestCatalogueMatchesBenchmarkJSON holds them
// together.
type metric struct {
	name, unit string
	// better is "lower" or "higher". For counts that the inputs fix (tasks,
	// DAGs, events) it is nominal: a speed-only change must not move them.
	better string
	// clock is "host" for host time, "sim" for simulated outcomes and
	// "count" for deterministic work counts.
	clock string
	doc   string
}

// endToEnd is printed by untraced runs (--trace 0).
var endToEnd = []metric{
	{"setup_s", "s", "lower", "host", "building systems: profiling, training and assembly, summed over every system the workload builds"},
	{"wall_s", "s", "lower", "host", "start of the workload to a checked result"},
	{"cell_slots_per_s", "1/s", "higher", "host", "simulated cells x slots per host second of the simulation phase"},
	{"alloc_mb", "MB", "lower", "host", "bytes the Go runtime allocated during the workload (TotalAlloc delta, 10^6 bytes)"},
}

// perLayer is printed by traced runs (--trace 1). The simulated metrics
// come first: the traced run reproduces the untraced one byte for byte, so
// they are the untraced run's results too.
var perLayer = []metric{
	{"miss_rate", "ratio", "lower", "sim", "missed DAGs (dropped ones included) over released DAGs; fleet: over completed DAGs"},
	{"p50_us", "us", "lower", "sim", "median slot latency"},
	{"p999_us", "us", "lower", "sim", "slot latency p99.9; 0 where fewer than ten samples lie beyond it"},
	{"latency_samples", "count", "higher", "sim", "slot latency samples behind p50_us and p999_us"},
	{"reclaimed_frac", "ratio", "higher", "sim", "share of pool core-time handed to best-effort work"},
	{"min_cores", "cores", "lower", "sim", "provision: smallest ladder rung meeting 0.99999 reliability"},
	{"cores_required", "cores", "lower", "sim", "fleet: time-averaged fleet core requirement (Result.RequiredCores)"},

	{"core.profile_s", "s", "lower", "host", "core.Profile: offline profiling"},
	{"core.profile_samples", "count", "lower", "count", "training samples profiled"},
	{"core.assemble_s", "s", "lower", "host", "assembling the pool after training (pool.New and its parts)"},
	{"predictor.select_s", "s", "lower", "host", "predictor.SelectFeatures over every task kind"},
	{"predictor.select_kinds", "count", "lower", "count", "task kinds that went through feature selection and training"},
	{"predictor.train_s", "s", "lower", "host", "predictor.TrainQuantileTree over every task kind"},
	{"predictor.leaves", "count", "lower", "count", "quantile-tree leaves trained"},
	{"predictor.predict_s", "s", "lower", "host", "time inside Predictor.Predict"},
	{"predictor.predict_calls", "count", "lower", "count", "Predictor.Predict calls"},
	{"predictor.observe_s", "s", "lower", "host", "time inside Predictor.Observe"},
	{"predictor.observe_calls", "count", "lower", "count", "Predictor.Observe calls"},
	{"scheduler.cores_s", "s", "lower", "host", "time inside Scheduler.Cores"},
	{"scheduler.decisions", "count", "lower", "count", "Scheduler.Cores calls"},
	{"pool.self_s", "s", "lower", "host", "pool.(*Pool).Run minus predictor and scheduler calls: event engine, cost model, DAG and scheduler-state building"},
	{"pool.tasks", "count", "higher", "count", "tasks executed"},
	{"pool.dags", "count", "higher", "count", "DAGs released (fleet: DAGs completed)"},
	{"pool.sched_events", "count", "lower", "count", "core yield/acquire transitions"},
	{"accel.offload_batches", "count", "lower", "count", "coalesced DMA transfers"},
	{"accel.batched_tasks", "count", "higher", "count", "tasks that rode in a batch"},
	{"faults.injected", "count", "lower", "count", "faults injected"},
	{"faults.recoveries", "count", "lower", "count", "recovery actions taken"},
	{"fleet.self_s", "s", "lower", "host", "fleet.Run minus predictor calls: traces, placement and every server's pool"},
	{"fleet.server_epochs", "count", "lower", "count", "epochs x servers fanned out"},
	{"fleet.migrations", "count", "lower", "count", "cell migrations"},
	{"telemetry.events", "count", "higher", "count", "events in the trace ring"},
	{"telemetry.dropped", "count", "lower", "count", "events overwritten by ring wraparound"},
	{"telemetry.export_s", "s", "lower", "host", "Tracer.WriteEventsCSV"},
	{"telemetry.parse_s", "s", "lower", "host", "telemetry.ReadEventsCSV"},
	{"slo.windows", "count", "higher", "count", "SLO window rows"},
	{"slo.alerts", "count", "lower", "count", "burn-rate alert rows"},
	{"slo.export_s", "s", "lower", "host", "Tracker.WriteCSV plus WriteHealthReport"},
	{"analysis.autopsy_s", "s", "lower", "host", "analysis.Analyze"},
	{"analysis.misses", "count", "lower", "count", "misses the autopsy attributed"},
	{"runtime.gc_cycles", "count", "lower", "count", "Go GC cycles during the traced workload"},
	{"bench.self_s", "s", "lower", "host", "the benchmark's own time outside every layer: checks and digests"},
	{"trace.wall_s", "s", "lower", "host", "wall time of the traced workload"},
	{"trace.overhead", "ratio", "lower", "host", "traced wall time over untraced wall time at the same seed"},
}
