package concordia_test

// Regression test for the parallel execution engine's core guarantee: the
// Workers knob changes wall-clock time and nothing else. Every experiment
// partitions its iteration space into fixed shards with their own RNG
// substreams (see internal/parallel), so its rendered output must be
// byte-for-byte identical whether one goroutine or eight execute it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"concordia/internal/experiments"
)

// update rewrites the committed output digests instead of comparing them:
//
//	go test -run TestExperimentsWorkerDeterminism -update .
var update = flag.Bool("update", false, "rewrite testdata/golden digests from the current output")

// wallClockOutputs are experiments whose rendered output embeds host
// wall-clock measurements (scheduler/predictor overhead in µs, calibration
// decode timings). Their simulated results are still worker-independent, but
// the printed timings legitimately vary run to run, so byte equality is not
// required of them, and they have no golden digest.
var wallClockOutputs = map[string]bool{
	"fig15a":      true,
	"calibration": true,
}

func TestExperimentsWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short")
	}
	base := experiments.Options{Seed: 42, Scale: 0.005, TrainingSlots: 150}
	for _, e := range experiments.Experiments {
		t.Run(e.Name, func(t *testing.T) {
			serial, fanout := base, base
			serial.Workers = 1
			fanout.Workers = 8
			res1, err := e.Run(serial)
			if err != nil {
				t.Fatal(err)
			}
			res8, err := e.Run(fanout)
			if err != nil {
				t.Fatal(err)
			}
			// The bytes RunAll writes: the text table and a newline.
			got1, got8 := res1.String()+"\n", res8.String()+"\n"
			if len(got1) == 1 || len(got8) == 1 {
				t.Fatal("experiment rendered no output")
			}
			if wallClockOutputs[e.Name] {
				return
			}
			checkGolden(t, e.Name+".sha256", []byte(got1))
			if tab, ok := res1.(experiments.Tabular); ok {
				var csv bytes.Buffer
				if err := experiments.WriteCSV(tab, &csv); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, e.Name+".csv.sha256", csv.Bytes())
			}
			if got1 != got8 {
				l1 := strings.Split(got1, "\n")
				l8 := strings.Split(got8, "\n")
				for i := range l1 {
					if i >= len(l8) || l1[i] != l8[i] {
						t.Fatalf("output differs between Workers=1 and Workers=8 at line %d:\n  w1: %q\n  w8: %q", i+1, l1[i], l8[min(i, len(l8)-1)])
					}
				}
				t.Fatalf("output differs between Workers=1 and Workers=8 (w8 has %d extra bytes)", len(got8)-len(got1))
			}
		})
	}
}

// checkGolden compares the SHA-256 of out with testdata/golden/<file>, or
// rewrites that digest under -update. A changed digest is a changed
// experiment output and must be explained in CHANGES.md. The digests pin
// amd64 output only: other architectures may fuse multiply-adds, so their
// floats can differ in the last bit.
func checkGolden(t *testing.T, file string, out []byte) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:]) + "\n"
	path := filepath.Join("testdata", "golden", file)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		t.Fatalf("no golden digest %s; rerun with -update to create it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got {
		t.Errorf("%s: output digest %s, want %s", path, strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}
