package phy

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"concordia/internal/rng"
)

func TestFFTInvalidSize(t *testing.T) {
	for _, n := range []int{0, 3, 12, -8} {
		if _, err := NewFFT(n); err == nil {
			t.Errorf("size %d accepted", n)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	f, _ := NewFFT(8)
	x := make([]complex128, 8)
	x[0] = 1
	if err := f.Forward(x); err != nil {
		t.Fatal(err)
	}
	// DFT of an impulse is flat.
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 64
	f, _ := NewFFT(n)
	x := make([]complex128, n)
	k := 5
	for i := range x {
		angle := 2 * math.Pi * float64(k*i) / n
		x[i] = cmplx.Exp(complex(0, angle))
	}
	f.Forward(x)
	for i, v := range x {
		want := 0.0
		if i == k {
			want = n
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Fatalf("bin %d magnitude %v want %v", i, cmplx.Abs(v), want)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{4, 32, 256, 1024} {
		f, _ := NewFFT(n)
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.Normal(0, 1), r.Normal(0, 1))
			orig[i] = x[i]
		}
		if err := f.Forward(x); err != nil {
			t.Fatal(err)
		}
		if err := f.Inverse(x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d round trip failed at %d", n, i)
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Energy conservation: Σ|x|² = (1/n)Σ|X|².
	r := rng.New(2)
	err := quick.Check(func(seed uint16) bool {
		const n = 128
		f, _ := NewFFT(n)
		x := make([]complex128, n)
		var te float64
		for i := range x {
			x[i] = complex(r.Normal(0, 1), r.Normal(0, 1))
			te += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		f.Forward(x)
		var fe float64
		for _, v := range x {
			fe += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(te-fe/n) < 1e-6*te
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFFTLengthMismatch(t *testing.T) {
	f, _ := NewFFT(16)
	if err := f.Forward(make([]complex128, 8)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestOFDMValidation(t *testing.T) {
	if _, err := NewOFDM(100, 8, 50); err == nil {
		t.Fatal("non-power-of-two FFT accepted")
	}
	if _, err := NewOFDM(64, 64, 32); err == nil {
		t.Fatal("CP >= FFT size accepted")
	}
	if _, err := NewOFDM(64, 8, 128); err == nil {
		t.Fatal("carriers > FFT size accepted")
	}
}

func TestOFDMRoundTrip(t *testing.T) {
	r := rng.New(3)
	o, err := NewOFDM(256, 18, 120)
	if err != nil {
		t.Fatal(err)
	}
	syms := make([]complex128, 120)
	for i := range syms {
		syms[i] = complex(r.Normal(0, 1), r.Normal(0, 1))
	}
	td, err := o.Modulate(syms)
	if err != nil {
		t.Fatal(err)
	}
	if len(td) != o.SymbolLength() {
		t.Fatalf("symbol length %d want %d", len(td), o.SymbolLength())
	}
	got, err := o.Demodulate(td)
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if cmplx.Abs(got[i]-syms[i]) > 1e-9 {
			t.Fatalf("carrier %d round trip failed: %v vs %v", i, got[i], syms[i])
		}
	}
}

func TestOFDMCyclicPrefix(t *testing.T) {
	o, _ := NewOFDM(64, 16, 32)
	syms := make([]complex128, 32)
	syms[3] = 1
	td, _ := o.Modulate(syms)
	// The CP must replicate the symbol tail.
	for i := 0; i < 16; i++ {
		if cmplx.Abs(td[i]-td[64+i]) > 1e-12 {
			t.Fatalf("cyclic prefix mismatch at %d", i)
		}
	}
}

func BenchmarkFFT4096(b *testing.B) {
	f, _ := NewFFT(4096)
	r := rng.New(1)
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(r.Normal(0, 1), r.Normal(0, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Forward(x)
	}
}
