package phy

import (
	"math"
	"testing"

	"concordia/internal/rng"
)

func TestAWGNNoiseVariance(t *testing.T) {
	r := rng.New(8)
	ch := NewAWGNChannel(10, r)
	zeros := make([]complex128, 100000)
	noisy := ch.Transmit(zeros)
	var p float64
	for _, s := range noisy {
		p += real(s)*real(s) + imag(s)*imag(s)
	}
	p /= float64(len(noisy))
	if math.Abs(p-ch.NoiseVar)/ch.NoiseVar > 0.05 {
		t.Fatalf("measured noise power %v want %v", p, ch.NoiseVar)
	}
}
