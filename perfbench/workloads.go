package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sort"
	"time"

	"concordia/internal/accel"
	"concordia/internal/analysis"
	"concordia/internal/core"
	"concordia/internal/costmodel"
	"concordia/internal/faults"
	"concordia/internal/fleet"
	"concordia/internal/platform"
	"concordia/internal/pool"
	"concordia/internal/predictor"
	"concordia/internal/ran"
	"concordia/internal/scheduler"
	"concordia/internal/sim"
	"concordia/internal/slo"
	"concordia/internal/stats"
	"concordia/internal/telemetry"
	"concordia/internal/workloads"
)

// scale fixes every input size of the four workloads. fullScale is the
// benchmark; the tests run tinyScale.
type scale struct {
	// training is the offline profiling length of every predictor set
	// (0 = core.DefaultTrainingSlots).
	training int
	// steady is pool-steady's simulated duration.
	steady sim.Time
	// ladder lists provision's pool sizes, smallest first; probe is each
	// rung's simulated duration.
	ladder []int
	probe  sim.Time
	// fleetCells cells over fleetServers servers for fleetHorizon; the
	// untraced run fans servers over fleetWorkers goroutines (0 = NumCPU).
	fleetCells, fleetServers int
	fleetHorizon             sim.Time
	fleetWorkers             int
	// chaos is chaos-observed's simulated duration.
	chaos sim.Time
}

// fullScale sizes every workload to three or four host seconds per
// execution on a 2-CPU 2.1 GHz Xeon, so a 25 s run repeats it six to eight
// times.
var fullScale = scale{
	steady:       8 * sim.Second,
	ladder:       []int{1, 2, 3, 4},
	probe:        sim.Second,
	fleetCells:   100,
	fleetServers: 8,
	fleetHorizon: sim.Second,
	chaos:        4 * sim.Second,
}

// Fixed workload parameters (see README.md for why each was chosen).
const (
	// trainingSeed seeds every predictor set's profiling and training, so
	// the trained trees, whose leaf sizes set the cost of a prediction, are
	// the same at every workload seed; the seed varies traffic, topology,
	// platform noise and faults.
	trainingSeed      = 42
	reliabilityTarget = 0.99999
	fleetLoad         = 0.8
	fleetCoresPer     = 12
	chaosLoad         = 0.6
	chaosFaults       = "storm=20,overrun=0.1,factor=50,late=0.05,stuck=0.02,reset=5"
	// chaosTraceCapPerSecond sizes the event ring to hold chaos-observed's
	// whole stream (about 200k events per simulated second), so the autopsy
	// sees every miss; the run fails if telemetry.dropped is not 0.
	chaosTraceCapPerSecond = 400_000
)

// workload is one named benchmark workload. run executes it once at the
// given scale and seed; a nil tracer is the untraced run.
type workload struct {
	name string
	run  func(sc scale, seed uint64, tr *tracer) (*outcome, error)
}

var workloadList = []workload{
	{"pool-steady", runPoolSteady},
	{"provision", runProvision},
	{"fleet", runFleet},
	{"chaos-observed", runChaos},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is one checked execution of a workload.
type outcome struct {
	// setup is host time spent building systems (profiling, training,
	// assembly); sim is host time inside the simulation calls.
	setup, sim time.Duration
	// cellSlots is the simulated cells × slots the run covered.
	cellSlots float64
	// digest hashes every simulated output; equal digests mean
	// byte-identical results.
	digest [sha256.Size]byte
	// counts holds the simulated metrics and deterministic per-layer counts.
	counts map[string]float64
}

func newOutcome() *outcome { return &outcome{counts: map[string]float64{}} }

func (o *outcome) add(name string, v float64) { o.counts[name] += v }

// timeSetup runs fn and charges its host time to setup.
func (o *outcome) timeSetup(fn func() error) error {
	start := time.Now()
	err := fn()
	o.setup += time.Since(start)
	return err
}

// simulate runs one pool for d inside a pool.run span and charges it to sim.
func (o *outcome) simulate(tr *tracer, sys *system, d sim.Time) *pool.Report {
	id := tr.begin("pool.run")
	start := time.Now()
	rep := sys.run(d)
	o.sim += time.Since(start)
	tr.end(id)
	return rep
}

// system is one assembled single-pool deployment.
type system struct {
	run func(sim.Time) *pool.Report
	slo *slo.Tracker
}

// build trains cfg's predictor set from trainingSeed, then assembles the
// deployment around it: through core.NewSystem when untraced, through the
// traced replica otherwise. The replica's results must equal NewSystem's
// byte for byte; the traced run checks that on every execution.
func build(cfg core.Config, tr *tracer, o *outcome) (*system, error) {
	set, err := trainSet(tr, o, cfg.Cells, cfg.TrainingSlots, cfg.PoolCores, cfg.Workers)
	if err != nil {
		return nil, err
	}
	cfg.Predictor = set
	if tr == nil {
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		return &system{run: sys.Run, slo: sys.SLO()}, nil
	}
	return assemble(cfg, tr)
}

// trainSet profiles cells and trains one predictor set the way
// core.NewSystem would at Seed trainingSeed. Untraced, it calls
// core.Profile and core.TrainPredictorsWorkers; traced, it trains one task
// kind at a time, each step in its own span, and decorates every tree.
func trainSet(tr *tracer, o *outcome, cells []ran.CellConfig, slots, cores, workers int) (pool.PredictorSet, error) {
	if slots == 0 {
		slots = core.DefaultTrainingSlots
	}
	model := costmodel.New(trainingSeed ^ 0xc0de)
	if tr == nil {
		return core.TrainPredictorsWorkers(core.Profile(cells, slots, model, cores, trainingSeed^0x0ff1), 1, workers)
	}
	var data map[ran.TaskKind][]predictor.Sample
	tr.phase("core.profile", func() error {
		data = core.Profile(cells, slots, model, cores, trainingSeed^0x0ff1)
		return nil
	})
	kinds := make([]ran.TaskKind, 0, len(data))
	for kind, samples := range data {
		o.add("core.profile_samples", float64(len(samples)))
		// core.TrainPredictorsWorkers skips kinds with fewer samples.
		if len(samples) >= 200 {
			kinds = append(kinds, kind)
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	set := pool.PredictorSet{}
	for _, kind := range kinds {
		var feats []ran.Feature
		tr.phase("predictor.select", func() error {
			feats = predictor.SelectFeatures(kind, data[kind], 6, 3)
			return nil
		})
		var tree *predictor.QuantileTree
		err := tr.phase("predictor.train", func() error {
			var err error
			tree, err = predictor.TrainQuantileTree(kind, feats, data[kind], predictor.TreeConfig{Margin: 1})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("core: training %v: %w", kind, err)
		}
		o.add("predictor.select_kinds", 1)
		o.add("predictor.leaves", float64(tree.NumLeaves()))
		set[kind] = timedPredictor{inner: tree, t: tr}
	}
	return set, nil
}

// assemble replicates core.NewSystem, given a trained predictor set, for
// the Concordia deployments the workloads use, with the scheduler
// decorated. It builds the pool through pool.New, because NewSystem offers
// no way to wrap the scheduler it constructs.
func assemble(cfg core.Config, tr *tracer) (*system, error) {
	if cfg.Scheduler != core.SchedConcordia || cfg.Predictor == nil || cfg.IncludeMAC ||
		cfg.ULTrace != nil || cfg.DLTrace != nil || cfg.Ablation != (core.Ablation{}) {
		return nil, errors.New("assemble: configuration outside the replicated subset")
	}
	model := costmodel.New(cfg.Seed ^ 0xc0de)
	id := tr.begin("core.assemble")
	defer tr.end(id)
	var sched scheduler.Scheduler = scheduler.NewConcordia()
	if cfg.Telemetry != nil {
		m := cfg.Telemetry.Metrics
		decisions := m.Counter("sched_decisions")
		escalations := m.Counter("sched_critical_escalations")
		bounds := make([]float64, cfg.PoolCores+1)
		for i := range bounds {
			bounds[i] = float64(i)
		}
		coresHist := m.Histogram("sched_cores_decided", bounds)
		sched = scheduler.Instrumented{Inner: sched, Observe: func(d scheduler.Decision) {
			decisions.Inc()
			coresHist.Observe(float64(d.Cores))
			if d.Critical {
				escalations.Inc()
			}
		}}
	}
	sched = timedScheduler{Scheduler: sched, t: tr}
	var dev *accel.Accelerator
	if cfg.UseAccel {
		if cfg.AccelDevices > 1 || cfg.AccelVFs > 1 || cfg.AccelQueueDepth > 0 {
			dev = accel.NewFleet(max(cfg.AccelDevices, 1), cfg.AccelVFs, 2, cfg.AccelQueueDepth,
				sim.FromUs(18), sim.FromUs(2))
		} else {
			dev = accel.DefaultFPGA()
		}
	}
	var wl *workloads.Schedule
	if cfg.Workload != workloads.None {
		wl = workloads.NewSchedule(cfg.Workload, 12*sim.Second*3600, cfg.Seed^0x3141)
	}
	var tracker *slo.Tracker
	if cfg.SLO != nil {
		opts := *cfg.SLO
		if opts.Deadline <= 0 {
			opts.Deadline = cfg.Deadline
		}
		var trc *telemetry.Tracer
		if cfg.Telemetry != nil {
			trc = cfg.Telemetry.Trace
		}
		tracker = slo.New(opts, trc)
	}
	p, err := pool.New(pool.Config{
		Cells:             cfg.Cells,
		PoolCores:         cfg.PoolCores,
		Scheduler:         sched,
		Predict:           cfg.Predictor,
		CostModel:         model,
		Platform:          platform.New(cfg.Seed ^ 0x9e37),
		Workload:          wl,
		Deadline:          cfg.Deadline,
		Load:              cfg.Load,
		PeakULBytes:       cfg.PeakULBytes,
		PeakDLBytes:       cfg.PeakDLBytes,
		Seed:              cfg.Seed,
		RotatePeriod:      sim.FromMs(2),
		ReleaseHysteresis: 2 * cfg.Cells[0].Numerology.SlotDuration(),
		Accel:             dev,
		OffloadBatch:      cfg.OffloadBatch,
		Telemetry:         cfg.Telemetry,
		SLO:               tracker,
		Faults:            cfg.Faults,
		DropLateDAGs:      cfg.DropLateDAGs,
	})
	if err != nil {
		return nil, err
	}
	return &system{run: p.Run, slo: tracker}, nil
}

// runPoolSteady is the paper's main deployment: 7×20 MHz cells on 8 cores
// shared with Redis at load 0.5.
func runPoolSteady(sc scale, seed uint64, tr *tracer) (*outcome, error) {
	cfg := core.Scenario20MHz(7, 8)
	cfg.Workload = workloads.Redis
	cfg.Seed = seed
	cfg.TrainingSlots = sc.training
	o := newOutcome()
	var sys *system
	if err := o.timeSetup(func() (err error) { sys, err = build(cfg, tr, o); return err }); err != nil {
		return nil, err
	}
	rep := o.simulate(tr, sys, sc.steady)
	if err := checkReport(rep); err != nil {
		return nil, err
	}
	o.cellSlots = float64(rep.Slots) * float64(len(cfg.Cells))
	o.recordReport(rep)
	o.recordSim(rep)
	h := sha256.New()
	if err := digestReport(h, rep); err != nil {
		return nil, err
	}
	copy(o.digest[:], h.Sum(nil))
	return o, nil
}

// runProvision builds 2×100 MHz deployments on a fixed ladder of pool sizes
// and reports the smallest rung whose probe meets the reliability target.
func runProvision(sc scale, seed uint64, tr *tracer) (*outcome, error) {
	o := newOutcome()
	h := sha256.New()
	minCores := 0
	var chosen *pool.Report
	for _, cores := range sc.ladder {
		id := tr.begin("provision.rung")
		cfg := core.Scenario100MHz(2, cores)
		cfg.Seed = seed
		cfg.TrainingSlots = sc.training
		var sys *system
		if err := o.timeSetup(func() (err error) { sys, err = build(cfg, tr, o); return err }); err != nil {
			return nil, fmt.Errorf("%d cores: %w", cores, err)
		}
		rep := o.simulate(tr, sys, sc.probe)
		tr.end(id)
		if err := checkReport(rep); err != nil {
			return nil, fmt.Errorf("%d cores: %w", cores, err)
		}
		o.cellSlots += float64(rep.Slots) * float64(len(cfg.Cells))
		o.recordReport(rep)
		if err := digestReport(h, rep); err != nil {
			return nil, err
		}
		if minCores == 0 && rep.Reliability() >= reliabilityTarget {
			minCores, chosen = cores, rep
		}
	}
	if !slices.Contains(sc.ladder, minCores) {
		return nil, fmt.Errorf("no rung of %v meets %.5f reliability", sc.ladder, reliabilityTarget)
	}
	o.recordSim(chosen)
	o.add("min_cores", float64(minCores))
	fmt.Fprintf(h, "min_cores %d\n", minCores)
	copy(o.digest[:], h.Sum(nil))
	return o, nil
}

// runFleet trains one predictor set and shares it across a 100-cell fleet
// of 12-core servers at load 0.8.
func runFleet(sc scale, seed uint64, tr *tracer) (*outcome, error) {
	o := newOutcome()
	workers := sc.fleetWorkers
	if tr != nil {
		// Per-call times are summed across goroutines; serving the traced run
		// from one keeps every layer's time inside the wall time. Results are
		// identical at any worker count.
		workers = 1
	}
	var preds pool.PredictorSet
	err := o.timeSetup(func() (err error) {
		preds, err = trainSet(tr, o, ran.Cells20MHz(1), sc.training, fleetCoresPer, workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	cfg := fleet.Config{
		Cells: sc.fleetCells, Servers: sc.fleetServers, CoresPerServer: fleetCoresPer,
		Load: fleetLoad, Horizon: sc.fleetHorizon, Seed: seed,
		Workers: workers, Predictors: preds,
	}
	var res *fleet.Result
	id := tr.begin("fleet.run")
	start := time.Now()
	res, err = fleet.Run(cfg)
	o.sim += time.Since(start)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if err := checkFleet(res, sc.fleetCells); err != nil {
		return nil, err
	}
	slotDur := ran.Cells20MHz(1)[0].Numerology.SlotDuration()
	epochs := len(res.Epochs)
	slots := int(sc.fleetHorizon/slotDur) / epochs * epochs
	o.cellSlots = float64(res.Admitted) * float64(slots)
	o.add("miss_rate", res.MissRate())
	o.add("cores_required", res.RequiredCores)
	o.add("pool.dags", float64(res.DAGs))
	o.add("fleet.server_epochs", float64(epochs*res.Servers))
	o.add("fleet.migrations", float64(res.Migrations))
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	o.digest = sha256.Sum256(b)
	return o, nil
}

// runChaos is the chaos testbed with telemetry and the SLO plane on: it
// runs with faults that really miss deadlines, then exports the event trace,
// reads it back, autopsies every miss and exports the SLO artifacts.
func runChaos(sc scale, seed uint64, tr *tracer) (*outcome, error) {
	fc, err := faults.Parse(chaosFaults)
	if err != nil {
		return nil, err
	}
	cfg := core.Scenario20MHz(4, 6)
	cfg.UseAccel = true
	cfg.AccelDevices, cfg.AccelVFs, cfg.AccelQueueDepth = 2, 2, 16
	cfg.OffloadBatch = 8
	cfg.DropLateDAGs = true
	cfg.Load = chaosLoad
	cfg.Seed = seed
	cfg.TrainingSlots = sc.training
	cfg.Faults = &fc
	rec := telemetry.New(telemetry.Options{TraceCapacity: int(sc.chaos.Seconds() * chaosTraceCapPerSecond)})
	cfg.Telemetry = rec
	cfg.SLO = &slo.Options{}
	o := newOutcome()
	var sys *system
	if err := o.timeSetup(func() (err error) { sys, err = build(cfg, tr, o); return err }); err != nil {
		return nil, err
	}
	rep := o.simulate(tr, sys, sc.chaos)
	if err := checkReport(rep); err != nil {
		return nil, err
	}
	var events bytes.Buffer
	if err := tr.phase("telemetry.export", func() error { return rec.Trace.WriteEventsCSV(&events) }); err != nil {
		return nil, err
	}
	var parsed []telemetry.Event
	err = tr.phase("telemetry.parse", func() (err error) {
		parsed, err = telemetry.ReadEventsCSV(bytes.NewReader(events.Bytes()))
		return err
	})
	if err != nil {
		return nil, err
	}
	var autopsy *analysis.Autopsy
	tr.phase("analysis.autopsy", func() error {
		autopsy = analysis.Analyze(parsed, analysis.Options{PoolCores: cfg.PoolCores, Deadline: cfg.Deadline})
		return nil
	})
	var sloCSV, sloReport bytes.Buffer
	err = tr.phase("slo.export", func() error {
		if err := sys.slo.WriteCSV(&sloCSV); err != nil {
			return err
		}
		return sys.slo.WriteHealthReport(&sloReport)
	})
	if err != nil {
		return nil, err
	}
	switch {
	case rep.Misses == 0:
		return nil, errors.New("chaos run missed no deadline")
	case rec.Trace.Dropped() != 0:
		return nil, fmt.Errorf("event ring dropped %d events", rec.Trace.Dropped())
	case !slices.Equal(parsed, rec.Trace.Events()):
		return nil, errors.New("events CSV does not round-trip")
	case !autopsy.PartitionHolds():
		return nil, errors.New("autopsy causes do not partition the misses")
	case uint64(autopsy.TotalMisses()) != rep.Misses:
		return nil, fmt.Errorf("autopsy found %d misses, report %d", autopsy.TotalMisses(), rep.Misses)
	}
	o.cellSlots = float64(rep.Slots) * float64(len(cfg.Cells))
	o.recordReport(rep)
	o.recordSim(rep)
	o.add("telemetry.events", float64(rec.Trace.Len()))
	o.add("telemetry.dropped", float64(rec.Trace.Dropped()))
	o.add("slo.windows", float64(len(sys.slo.Rows())))
	o.add("slo.alerts", float64(len(sys.slo.Alerts())))
	o.add("analysis.misses", float64(autopsy.TotalMisses()))
	h := sha256.New()
	if err := digestReport(h, rep); err != nil {
		return nil, err
	}
	h.Write(events.Bytes())
	h.Write(sloCSV.Bytes())
	h.Write(sloReport.Bytes())
	fmt.Fprintf(h, "%v\n", autopsy.CauseCounts)
	copy(o.digest[:], h.Sum(nil))
	return o, nil
}

// recordReport adds a pool report's deterministic per-layer counts.
func (o *outcome) recordReport(rep *pool.Report) {
	o.add("pool.tasks", float64(rep.TasksExecuted))
	o.add("pool.dags", float64(rep.DAGsReleased))
	o.add("pool.sched_events", float64(rep.SchedulingEvents))
	o.add("accel.offload_batches", float64(rep.OffloadBatches))
	o.add("accel.batched_tasks", float64(rep.BatchedTasks))
	o.add("faults.injected", float64(rep.Faults.Injected()))
	o.add("faults.recoveries", float64(rep.Faults.Recoveries()))
}

// recordSim sets the simulated-time fidelity metrics from one report.
func (o *outcome) recordSim(rep *pool.Report) {
	o.counts["miss_rate"] = float64(rep.Misses) / float64(rep.DAGsReleased)
	o.counts["reclaimed_frac"] = rep.ReclaimedFraction()
	n := rep.Latency.Count()
	o.counts["latency_samples"] = float64(n)
	o.counts["p50_us"] = rep.TailLatencyUs(0.5)
	// p99.9 is reported only where at least ten samples lie beyond it.
	if float64(n)*(1-0.999) >= 10 {
		o.counts["p999_us"] = rep.TailLatencyUs(0.999)
	}
}

// checkReport verifies a pool report's DAG accounting and rates.
func checkReport(rep *pool.Report) error {
	var cellDAGs, cellMisses, cellDropped uint64
	for _, c := range rep.PerCell {
		cellDAGs += c.DAGs
		cellMisses += c.Misses
		cellDropped += c.Dropped
	}
	switch {
	case rep.DAGsReleased == 0:
		return errors.New("report: no DAG released")
	case rep.DAGsCompleted > rep.DAGsReleased:
		return fmt.Errorf("report: %d DAGs completed of %d released", rep.DAGsCompleted, rep.DAGsReleased)
	case rep.Misses > rep.DAGsCompleted || rep.DAGsDropped > rep.Misses:
		return fmt.Errorf("report: %d dropped, %d missed, %d completed", rep.DAGsDropped, rep.Misses, rep.DAGsCompleted)
	case cellDAGs != rep.DAGsCompleted || cellMisses != rep.Misses || cellDropped != rep.DAGsDropped:
		return errors.New("report: per-cell DAG counts do not sum to the totals")
	case rep.Latency.Count() != rep.DAGsCompleted:
		return fmt.Errorf("report: %d latency samples for %d DAGs", rep.Latency.Count(), rep.DAGsCompleted)
	}
	for name, v := range map[string]float64{
		"reliability":       rep.Reliability(),
		"reclaimed":         rep.ReclaimedFraction(),
		"ran utilization":   rep.RANUtilization(),
		"owned utilization": rep.OwnedUtilization(),
		"ideal reclaimable": rep.IdealReclaimable(),
	} {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("report: %s %v outside [0,1]", name, v)
		}
	}
	return nil
}

// checkFleet verifies a fleet result's placement and DAG accounting.
func checkFleet(res *fleet.Result, cells int) error {
	var dags, misses uint64
	migrations := 0
	for _, e := range res.Epochs {
		dags += e.DAGs
		misses += e.Misses
		migrations += e.Migrations
	}
	switch {
	case res.Admitted+res.Rejected != cells:
		return fmt.Errorf("fleet: %d admitted + %d rejected != %d cells", res.Admitted, res.Rejected, cells)
	case dags != res.DAGs || misses != res.Misses || migrations != res.Migrations:
		return errors.New("fleet: per-epoch counts do not sum to the totals")
	case res.DAGs == 0:
		return errors.New("fleet: no DAG completed")
	case res.Dropped > res.Misses:
		return fmt.Errorf("fleet: %d dropped of %d missed", res.Dropped, res.Misses)
	case !(res.RequiredCores > 0) || !(res.IdealCores > 0):
		return fmt.Errorf("fleet: required %v ideal %v cores", res.RequiredCores, res.IdealCores)
	}
	if r := res.MissRate(); !(r >= 0 && r <= 1) {
		return fmt.Errorf("fleet: miss rate %v outside [0,1]", r)
	}
	return nil
}

// digestReport hashes everything a pool report exposes: its exported
// fields, its latency distributions, wakeup histogram and runtime samples.
func digestReport(h hash.Hash, rep *pool.Report) error {
	tail := func(t *stats.TailRecorder) []float64 {
		out := []float64{float64(t.Count()), t.Max()}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999} {
			out = append(out, t.Quantile(q))
		}
		return out
	}
	kinds := make([]ran.TaskKind, 0, len(rep.TaskRuntimes))
	for k := range rep.TaskRuntimes {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	runtimes := make([][]float64, len(kinds))
	for i, k := range kinds {
		r := rep.TaskRuntimes[k]
		runtimes[i] = append([]float64{float64(k), float64(r.Seen())}, r.Samples()...)
	}
	b, err := json.Marshal(struct {
		Report                        *pool.Report
		Latency, LatencyUL, LatencyDL []float64
		Wakeup                        []stats.Bucket
		Runtimes                      [][]float64
		Redis                         float64
		Summary, PerCell              string
	}{
		rep, tail(rep.Latency), tail(rep.LatencyUL), tail(rep.LatencyDL),
		rep.WakeupHistUs.Buckets(), runtimes, rep.WorkloadThroughput(workloads.Redis),
		rep.String(), rep.PerCellString(),
	})
	if err != nil {
		return fmt.Errorf("report digest: %w", err)
	}
	h.Write(b)
	return nil
}
