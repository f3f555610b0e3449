package phy

import "testing"

func TestModulationBasics(t *testing.T) {
	for _, c := range []struct {
		m    Modulation
		name string
		bits int
	}{
		{QPSK, "QPSK", 2}, {QAM16, "16QAM", 4}, {QAM64, "64QAM", 6}, {QAM256, "256QAM", 8},
	} {
		if got := c.m.String(); got != c.name {
			t.Errorf("String() = %q want %q", got, c.name)
		}
		if got := c.m.BitsPerSymbol(); got != c.bits {
			t.Errorf("%v BitsPerSymbol() = %d want %d", c.m, got, c.bits)
		}
	}
	if got := Modulation(3).String(); got != "Modulation(3)" {
		t.Errorf("unknown modulation named %q", got)
	}
}
