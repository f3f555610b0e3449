// Command perfbench is the repository benchmark. It runs one named workload
// in-process for a fixed host-time budget, repeating it at one seed, checks
// every execution's outputs, and prints each metric with its unit and
// direction, then one JSON result line.
//
//	perfbench --workload pool-steady --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced executions;
// --trace 1 runs one untraced reference execution, then traced executions
// whose decorators time each layer, and reports the per-layer metrics.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// minRuns is the fewest executions a run makes, even past its budget: the
// reported figures are medians.
const minRuns = 3

// hardCap stops starting executions well inside the 180 s a run may take.
const hardCap = 120 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:], fullScale, os.Stdout, os.Stderr))
}

// realMain runs the benchmark at scale sc and returns the exit code.
func realMain(args []string, sc scale, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pool-steady, provision, fleet or chaos-observed")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 25, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced executions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res = measureTraced(w, sc, *seed, budget, stderr)
	} else {
		res = measure(w, sc, *seed, budget, stderr)
	}
	res.print(stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

// execution is one timed, checked workload execution.
type execution struct {
	out   *outcome
	wall  time.Duration
	alloc uint64
	gc    uint32
	tr    *tracer
}

// execute runs the workload once after a full GC, so every execution starts
// from the same heap.
func execute(w workload, sc scale, seed uint64, tr *tracer) (*execution, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	root := tr.begin("workload")
	out, err := w.run(sc, seed, tr)
	tr.end(root)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	return &execution{
		out: out, wall: wall, tr: tr,
		alloc: after.TotalAlloc - before.TotalAlloc,
		gc:    after.NumGC - before.NumGC,
	}, nil
}

// runner repeats executions until the budget is spent and counts failures.
type runner struct {
	start     time.Time
	budget    time.Duration
	attempted int
	failed    int
	last      time.Duration
	log       io.Writer
}

// more reports whether another execution fits: at least minRuns are made,
// and none starts that would likely end past the budget.
func (r *runner) more() bool {
	elapsed := time.Since(r.start)
	if r.attempted < minRuns {
		return elapsed < hardCap
	}
	return elapsed+r.last <= r.budget
}

// attempt makes one execution and checks its digest against want (a zero
// want accepts any digest). It returns nil when the execution failed.
func (r *runner) attempt(w workload, sc scale, seed uint64, tr *tracer, want [32]byte) *execution {
	r.attempted++
	t0 := time.Now()
	e, err := execute(w, sc, seed, tr)
	r.last = time.Since(t0)
	if err == nil && want != ([32]byte{}) && e.out.digest != want {
		err = errors.New("simulated results differ from the first execution at the same seed")
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "perfbench: %s execution %d failed: %v\n", w.name, r.attempted, err)
		return nil
	}
	fmt.Fprintf(r.log, "perfbench: %s execution %d: wall %.3fs setup %.3fs\n", w.name, r.attempted, e.wall.Seconds(), e.out.setup.Seconds())
	return e
}

// measure makes untraced executions and reports the end-to-end metrics.
func measure(w workload, sc scale, seed uint64, budget time.Duration, log io.Writer) result {
	r := &runner{start: time.Now(), budget: budget, log: log}
	var runs []*execution
	var want [32]byte
	for r.more() {
		if e := r.attempt(w, sc, seed, nil, want); e != nil {
			runs = append(runs, e)
			want = e.out.digest
		}
	}
	res := r.result(endToEnd)
	if len(runs) == 0 {
		return res
	}
	med := func(f func(e *execution) float64) float64 {
		vals := make([]float64, len(runs))
		for i, e := range runs {
			vals[i] = f(e)
		}
		return median(vals)
	}
	res.set("setup_s", med(func(e *execution) float64 { return e.out.setup.Seconds() }))
	res.set("wall_s", med(func(e *execution) float64 { return e.wall.Seconds() }))
	res.set("cell_slots_per_s", med(func(e *execution) float64 { return e.out.cellSlots / e.out.sim.Seconds() }))
	res.set("alloc_mb", med(func(e *execution) float64 { return float64(e.alloc) / 1e6 }))
	return res
}

// measureTraced alternates traced and untraced executions, starting with a
// traced one, until the budget is spent, and reports the per-layer metrics.
// Every execution must reproduce the first one's digest, and every traced
// execution the first traced one's counts.
func measureTraced(w workload, sc scale, seed uint64, budget time.Duration, log io.Writer) result {
	// Traced fleet executions serve their servers from one goroutine; the
	// untraced ones do too, so trace.overhead compares like with like.
	sc.fleetWorkers = 1
	r := &runner{start: time.Now(), budget: budget, log: log}
	var traced, plain []*execution
	var want [32]byte
	var counts map[string]float64
	for i := 0; (r.more() || len(traced) < 2 || len(plain) < 1) && time.Since(r.start) < hardCap; i++ {
		var tr *tracer
		if i%2 == 0 {
			tr = newTracer()
		}
		e := r.attempt(w, sc, seed, tr, want)
		if e == nil {
			continue
		}
		want = e.out.digest
		if tr == nil {
			plain = append(plain, e)
			continue
		}
		c := layerCounts(e)
		if counts != nil && !maps.Equal(c, counts) {
			r.failed++
			fmt.Fprintf(log, "perfbench: %s execution %d: deterministic counts differ between traced executions\n", w.name, r.attempted)
			continue
		}
		counts = c
		traced = append(traced, e)
	}
	res := r.result(perLayer)
	if len(traced) == 0 || len(plain) == 0 {
		res.Correct = false
		return res
	}
	plainWall := make([]float64, len(plain))
	for i, e := range plain {
		plainWall[i] = e.wall.Seconds()
	}
	untraced := median(plainWall)
	for _, m := range perLayer {
		if v, ok := counts[m.name]; ok {
			res.set(m.name, v)
			continue
		}
		vals := make([]float64, len(traced))
		for i, e := range traced {
			vals[i] = layerTime(e, m.name, untraced)
		}
		res.set(m.name, median(vals))
	}
	return res
}

// layerCounts gathers a traced execution's deterministic values: the
// outcome's simulated metrics and counts plus the decorators' call counts.
func layerCounts(e *execution) map[string]float64 {
	c := maps.Clone(e.out.counts)
	c["predictor.predict_calls"] = float64(e.tr.calls[callPredict].n)
	c["predictor.observe_calls"] = float64(e.tr.calls[callObserve].n)
	c["scheduler.decisions"] = float64(e.tr.calls[callCores].n)
	for _, m := range perLayer {
		if _, ok := c[m.name]; !ok && m.clock != "host" && m.name != "runtime.gc_cycles" {
			c[m.name] = 0 // a layer the workload bypasses
		}
	}
	return c
}

// spanMetrics maps a per-layer time metric to the span whose self time it
// reports.
var spanMetrics = map[string]string{
	"core.profile_s":     "core.profile",
	"core.assemble_s":    "core.assemble",
	"predictor.select_s": "predictor.select",
	"predictor.train_s":  "predictor.train",
	"pool.self_s":        "pool.run",
	"fleet.self_s":       "fleet.run",
	"telemetry.export_s": "telemetry.export",
	"telemetry.parse_s":  "telemetry.parse",
	"slo.export_s":       "slo.export",
	"analysis.autopsy_s": "analysis.autopsy",
}

// layerTime is one traced execution's value of a host-time metric.
func layerTime(e *execution, name string, untracedWall float64) float64 {
	tr := e.tr
	switch name {
	case "predictor.predict_s":
		return tr.calls[callPredict].d.Seconds()
	case "predictor.observe_s":
		return tr.calls[callObserve].d.Seconds()
	case "scheduler.cores_s":
		return tr.calls[callCores].d.Seconds()
	case "bench.self_s":
		return (tr.selfTotal("workload") + tr.selfTotal("provision.rung")).Seconds()
	case "runtime.gc_cycles":
		return float64(e.gc)
	case "trace.wall_s":
		return e.wall.Seconds()
	case "trace.overhead":
		return e.wall.Seconds() / untracedWall
	}
	return tr.selfTotal(spanMetrics[name]).Seconds()
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	declared []metric // endToEnd or perLayer
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runner) result(declared []metric) result {
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
		declared:  declared,
	}
}

// set records a declared metric. A value that is not a finite number
// fails the run: the program produced a broken figure.
func (res *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		res.Correct = false
		return
	}
	for _, m := range res.declared {
		if m.name == name {
			res.Metrics[name] = metricValue{Value: v, Unit: m.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// print writes one human-readable line per metric, then the JSON line.
func (res *result) print(w io.Writer) {
	for _, m := range res.declared {
		if v, ok := res.Metrics[m.name]; ok {
			fmt.Fprintf(w, "%-24s %16.6g %-5s %-6s better  %-5s  %s\n", m.name, v.Value, m.unit, m.better, m.clock, m.doc)
		}
	}
	b, _ := json.Marshal(res) // a map of finite numbers and strings
	fmt.Fprintf(w, "%s\n", b)
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
