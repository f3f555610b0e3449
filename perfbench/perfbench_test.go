package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"concordia/internal/sim"
)

// tinyScale runs every workload in well under a second.
var tinyScale = scale{
	training:     300,
	steady:       200 * sim.Millisecond,
	ladder:       []int{1, 2, 4},
	probe:        100 * sim.Millisecond,
	fleetCells:   10,
	fleetServers: 2,
	fleetHorizon: 200 * sim.Millisecond,
	chaos:        500 * sim.Millisecond,
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(label string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", label, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalogue %s %s %s", label, i, g, m.name, m.unit, m.better)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(doc.Workloads), len(workloadList))
	}
	for i, w := range workloadList {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// TestEveryMetricPrinted runs the command both ways on every workload and
// checks the JSON line and the table carry every declared metric.
func TestEveryMetricPrinted(t *testing.T) {
	for _, w := range workloadList {
		for trace, declared := range [][]metric{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.01", "--trace", []string{"0", "1"}[trace]}
			if code := realMain(args, tinyScale, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minRuns {
				t.Errorf("%s trace %d: %+v", w.name, trace, res)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace %d: %d metrics printed, %d declared", w.name, trace, len(res.Metrics), len(declared))
			}
			table := map[string][]string{}
			for _, line := range lines[:len(lines)-1] {
				f := strings.Fields(line)
				table[f[0]] = f
			}
			for _, m := range declared {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s trace %d: %s missing or with unit %q", w.name, trace, m.name, v.Unit)
				}
				if f := table[m.name]; len(f) < 5 || f[2] != m.unit || f[3] != m.better || f[4] != "better" {
					t.Errorf("%s trace %d: table line for %s is %q", w.name, trace, m.name, f)
				}
			}
		}
	}
}

func TestBadArgumentsExitWithoutResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fleet", "--trace", "2"},
		{"--workload", "fleet", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, tinyScale, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestTracedMatchesUntraced checks the decorators and the traced assembly
// change no simulated output, and that self times are sound.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloadList {
		plain, err := execute(w, tinyScale, 5, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := execute(w, tinyScale, 5, newTracer())
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if plain.out.digest != traced.out.digest {
			t.Errorf("%s: traced results differ from untraced", w.name)
		}
		tr := traced.tr
		var sum time.Duration
		for i, self := range tr.selfTimes() {
			if self < 0 {
				t.Errorf("%s: span %s self time %v", w.name, tr.spans[i].name, self)
			}
			sum += self
		}
		for _, c := range tr.calls {
			sum += c.d
		}
		if sum > traced.wall {
			t.Errorf("%s: self times and calls sum to %v, more than wall %v", w.name, sum, traced.wall)
		}
		if tr.calls[callPredict].n == 0 {
			t.Errorf("%s: no Predict call traced", w.name)
		}
	}
}

func TestSeedDeterminesResults(t *testing.T) {
	for _, w := range workloadList {
		a, err := w.run(tinyScale, 7, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := w.run(tinyScale, 7, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		c, err := w.run(tinyScale, 8, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if a.digest != b.digest || len(a.counts) != len(b.counts) {
			t.Errorf("%s: same seed, different results", w.name)
		}
		for k, v := range a.counts {
			if b.counts[k] != v {
				t.Errorf("%s: same seed, %s %v then %v", w.name, k, v, b.counts[k])
			}
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 give identical results", w.name)
		}
	}
}

func TestFleetIdenticalAtAnyWorkerCount(t *testing.T) {
	serial, parallel := tinyScale, tinyScale
	serial.fleetWorkers = 1
	parallel.fleetWorkers = max(runtime.NumCPU(), 2)
	a, err := runFleet(serial, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runFleet(parallel, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("fleet results differ between 1 and %d workers", parallel.fleetWorkers)
	}
}

func TestSelfTimes(t *testing.T) {
	// A synthetic trace: root [0,10] holds a child [2,6] that made calls
	// for 1, and the root itself made calls for 2 outside the child.
	tr := &tracer{spans: []span{
		{name: "root", parent: -1, begin: 0, end: 10},
		{name: "child", parent: 0, begin: 2, end: 6},
	}}
	tr.spans[0].callsEnd[callPredict] = 3
	tr.spans[1].callsBegin[callPredict] = 0
	tr.spans[1].callsEnd[callPredict] = 1
	self := tr.selfTimes()
	if self[0] != 10-4-2 || self[1] != 4-1 {
		t.Errorf("self times %v, want [4 3]", self)
	}
}
