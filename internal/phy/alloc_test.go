package phy

import (
	"testing"

	"concordia/internal/rng"
)

// Zero-alloc gate for scratch reuse (DESIGN.md §5f): a warmed LDPC
// Decoder.DecodeInto must stop allocating once its destination capacity and
// scratch exist. This pins the contract so a refactor that quietly
// reintroduces per-call garbage fails loudly instead of showing up as GC
// pressure in the calibration experiment.

func TestLDPCDecodeIntoZeroAlloc(t *testing.T) {
	code, err := NewLDPCCode(256, 132, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	info := make([]byte, code.K)
	for i := range info {
		info[i] = byte(r.Intn(2))
	}
	cw, err := code.Encode(info)
	if err != nil {
		t.Fatal(err)
	}
	llr := make([]float64, code.N())
	for i, b := range cw {
		llr[i] = 4 * (1 - 2*float64(b))
	}
	dec := code.NewDecoder()
	var res DecodeResult
	if err := dec.DecodeInto(&res, llr); err != nil { // warm Info
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := dec.DecodeInto(&res, llr); err != nil {
			t.Error(err)
		}
	}); a != 0 {
		t.Errorf("warmed LDPC DecodeInto allocated %.1f per run, want 0", a)
	}
}
