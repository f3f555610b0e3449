package telemetry

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"concordia/internal/sim"
)

func TestSampleRingWraparoundCSVOrder(t *testing.T) {
	r := NewRegistryCapacity(4)
	c := r.Counter("n")
	for i := 0; i < 10; i++ {
		c.Inc()
		r.Sample(sim.Time(i) * sim.Millisecond)
	}
	if r.Samples() != 4 {
		t.Fatalf("Samples = %d, want ring capacity 4", r.Samples())
	}
	if r.rowsEvicted != 6 {
		t.Fatalf("rowsEvicted = %d, want 6", r.rowsEvicted)
	}
	var buf bytes.Buffer
	if err := r.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_us,n" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 5 {
		t.Fatalf("want 4 data rows, got %d", len(lines)-1)
	}
	// The ring keeps the newest 4 rows (i=6..9), oldest first, with the
	// counter values they observed at sampling time.
	for i, want := range []struct{ atMs, n int }{{6, 7}, {7, 8}, {8, 9}, {9, 10}} {
		cols := strings.Split(lines[i+1], ",")
		atUs, _ := strconv.ParseFloat(cols[0], 64)
		if int(atUs) != want.atMs*1000 || cols[1] != strconv.Itoa(want.n) {
			t.Errorf("row %d = %q, want t=%dms n=%d", i, lines[i+1], want.atMs, want.n)
		}
	}
}

func TestSampleRingReusesRowMaps(t *testing.T) {
	r := NewRegistryCapacity(8)
	r.Counter("a")
	r.Gauge("b")
	at := sim.Time(0)
	for i := 0; i < 8; i++ { // fill the ring
		r.Sample(at)
		at += sim.Millisecond
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Sample(at)
		at += sim.Millisecond
	})
	if allocs != 0 {
		t.Fatalf("steady-state Sample allocated %.1f/op, want 0 (row maps should be reused)", allocs)
	}
}

func TestSampleRingPartialFillKeepsOrder(t *testing.T) {
	r := NewRegistryCapacity(16)
	for i := 0; i < 3; i++ {
		r.Sample(sim.Time(i) * sim.Millisecond)
	}
	if r.Samples() != 3 || r.rowsEvicted != 0 {
		t.Fatalf("partial fill: Samples=%d Evicted=%d", r.Samples(), r.rowsEvicted)
	}
	var buf bytes.Buffer
	if err := r.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[1], "0") || !strings.HasPrefix(lines[3], "2000") {
		t.Fatalf("partial-fill CSV wrong:\n%s", buf.String())
	}
}

func TestHistogramRejectsNaNInf(t *testing.T) {
	r := NewRegistryCapacity(0)
	h := r.Histogram("lat_us", []float64{1, 10, 100})
	h.Observe(5)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	h.Observe(50)

	if h.total != 2 {
		t.Errorf("total = %d, want 2 (invalid samples must not count)", h.total)
	}
	if h.invalid != 3 {
		t.Errorf("invalid = %d, want 3", h.invalid)
	}
	if h.sum != 55 {
		t.Errorf("sum = %v, want 55 (NaN must not poison the sum)", h.sum)
	}
	for _, b := range h.buckets() {
		if b.Inf && b.Count != 0 {
			t.Errorf("+Inf bucket count = %d; invalid samples must not land there", b.Count)
		}
	}
}
