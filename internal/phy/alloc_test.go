package phy

import (
	"testing"

	"concordia/internal/rng"
)

// Zero-alloc gates for scratch reuse (DESIGN.md §5f): a warmed LDPC
// Decoder.DecodeInto and a warmed OFDM Append round trip must stop
// allocating once their destination capacity and scratch exist. These pin
// the contract so a refactor that quietly reintroduces per-call garbage
// fails loudly instead of showing up as GC pressure in the calibration
// experiment.

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

func TestOFDMAppendZeroAlloc(t *testing.T) {
	o, err := NewOFDM(256, 18, 120)
	if err != nil {
		t.Fatal(err)
	}
	grid := make([]complex128, 120)
	for i := range grid {
		grid[i] = complex(1, -1)
	}
	td := make([]complex128, 0, o.SymbolLength())
	fd := make([]complex128, 0, 120)
	if td, err = o.ModulateAppend(td[:0], grid); err != nil { // warm scratch
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		var aerr error
		td, aerr = o.ModulateAppend(td[:0], grid)
		if aerr != nil {
			t.Error(aerr)
		}
		fd, aerr = o.DemodulateAppend(fd[:0], td)
		if aerr != nil {
			t.Error(aerr)
		}
	}); a != 0 {
		t.Errorf("warmed OFDM Append round trip allocated %.1f per run, want 0", a)
	}
}
