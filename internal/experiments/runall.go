package experiments

import (
	"fmt"
	"io"
	"slices"

	"concordia/internal/parallel"
	"concordia/internal/ran"
)

// Experiment is one row of the registry: the name Each accepts and the
// function that produces the result. A result that also implements Tabular
// has a CSV form.
type Experiment struct {
	Name string
	Run  func(Options) (fmt.Stringer, error)
}

// Experiments lists every experiment in canonical output order. Adding an
// experiment is one row here.
var Experiments = []Experiment{
	{"fig3", result(RunFig3Traffic)},
	{"pooling", result(RunPoolingGaussian)},
	{"fig4a", result(RunFig4Utilization)},
	{"fig4b", result(RunFig4Violations)},
	{"fig6", result(RunFig6LDPCScaling)},
	{"fig7", result(RunFig7Leaves)},
	{"fig8a", result(RunFig8Reclaimed)},
	{"fig8b", result(RunFig8Workloads)},
	{"fig9", result(RunFig9Cache)},
	{"fig10", result(RunFig10SchedLatency)},
	{"fig11", result(RunFig11TailLatency)},
	{"fig12", result(RunFig12Cores)},
	{"fig13", result(RunFig13PWCET)},
	{"fig14", result(func(o Options) (*Fig14Result, error) { return RunFig14Models(o, ran.TaskLDPCDecode) })},
	{"fig15a", result(RunFig15Overhead)},
	{"fig15b", result(RunFig15Deadline)},
	{"table3", result(RunTable3FPGA)},
	{"table4", result(RunTable4Offload)},
	{"fig17", result(RunFig17PerTask)},
	{"ablation", result(RunAblation)},
	{"extension", result(RunMACExtension)},
	{"calibration", result(RunCalibration)},
	{"chaos", result(func(o Options) (*ChaosResult, error) { return RunChaos(o, "sweep") })},
	{"predcal", result(RunPredCal)},
	{"fleet", result(RunFleet)},
	{"accelsweep", result(RunAccelSweep)},
	{"slosweep", result(RunSLOSweep)},
}

// result adapts a typed RunX function to Experiment.Run. A failed run
// yields a nil interface rather than a typed nil pointer.
func result[R fmt.Stringer](run func(Options) (R, error)) func(Options) (fmt.Stringer, error) {
	return func(o Options) (fmt.Stringer, error) {
		r, err := run(o)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// Each executes the named experiments (every experiment when names is
// empty), fanning them across o.Workers goroutines, then hands each result
// to emit on the calling goroutine in the order named. Each experiment seeds
// its own RNG streams from Options, so the results are identical for every
// worker count (modulo the host wall-clock timings fig15a and calibration
// report). Results that completed before the lowest-indexed failure are
// still emitted, matching the serial semantics of stopping at the failing
// experiment.
func Each(o Options, names []string, emit func(name string, res fmt.Stringer) error) error {
	exps := Experiments
	if len(names) > 0 {
		exps = make([]Experiment, len(names))
		for i, name := range names {
			j := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.Name == name })
			if j < 0 {
				return fmt.Errorf("experiments: unknown experiment %q", name)
			}
			exps[i] = Experiments[j]
		}
	}
	results := make([]fmt.Stringer, len(exps))
	runErr := parallel.ForEach(o.workers(), len(exps), func(i int) error {
		res, err := exps[i].Run(o)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", exps[i].Name, err)
		}
		results[i] = res
		return nil
	})
	for i, res := range results {
		if res == nil {
			break
		}
		if err := emit(exps[i].Name, res); err != nil {
			return err
		}
	}
	return runErr
}

// RunAll executes every experiment and writes each rendered result, a text
// table and a newline, to w in canonical order; the bytes are identical for
// every worker count.
func RunAll(o Options, w io.Writer) error {
	return Each(o, nil, func(_ string, res fmt.Stringer) error {
		_, err := fmt.Fprintln(w, res.String())
		return err
	})
}
