package telemetry

import (
	"fmt"
	"math"
	"sort"

	"concordia/internal/sim"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Histogram buckets samples into fixed upper-bound ranges. The bounds are
// fixed at registration (no adaptive resizing), which is what makes the
// exported bucket set — and therefore the output bytes — independent of the
// sample stream's order.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts  []uint64  // len(bounds)+1
	total   uint64
	sum     float64
	invalid uint64 // NaN/±Inf observations, dropped from the buckets
}

// Observe records one sample. NaN and ±Inf are not observations: they are
// dropped and counted in invalid, rather than silently polluting the
// overflow bucket (NaN/+Inf) or the first bucket (-Inf) and poisoning the
// sum.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.invalid++
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.total++
	h.sum += v
}

// buckets returns (upper bound, count) pairs in ascending bound order; the
// final pair has Inf=true and holds the overflow count.
func (h *Histogram) buckets() []histBucket {
	if h == nil {
		return nil
	}
	out := make([]histBucket, len(h.counts))
	for i, c := range h.counts {
		if i < len(h.bounds) {
			out[i] = histBucket{Le: h.bounds[i], Count: c}
		} else {
			out[i] = histBucket{Inf: true, Count: c}
		}
	}
	return out
}

// histBucket is one histogram range: samples <= Le (or the +Inf overflow).
type histBucket struct {
	Le    float64
	Inf   bool
	Count uint64
}

// DefaultLatencyBucketsUs is the standard microsecond bucket ladder used for
// queueing-delay, runtime and wakeup histograms.
var DefaultLatencyBucketsUs = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// Registry owns named metrics and the sampled time series. Registration is
// idempotent (Counter("x") twice returns the same counter) and the CSV
// export is in sorted name order, so output is byte-identical across runs
// regardless of registration order.
//
// A nil *Registry is valid: lookups return nil metrics whose methods are
// no-ops, and Sample does nothing.
//
// The sampled time series is a bounded ring of the most recent
// sampleCap rows: long fleet runs with -metrics keep the newest history
// instead of growing without bound, and evictions are counted.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	sampleCap   int
	rows        []sampleRow
	rowNext     int // next overwrite position once the ring is full
	rowFull     bool
	rowsEvicted uint64
}

type sampleRow struct {
	at   sim.Time
	vals map[string]float64
}

// DefaultSampleCapacity bounds the sampled time series when no explicit
// capacity is configured: at the pool's one-sample-per-slot cadence this
// retains over a minute of 5G numerology-1 history.
const DefaultSampleCapacity = 1 << 17

// NewRegistryCapacity returns an empty registry retaining the last
// capacity sample rows (<=0 selects DefaultSampleCapacity).
func NewRegistryCapacity(capacity int) *Registry {
	if capacity <= 0 {
		capacity = DefaultSampleCapacity
	}
	return &Registry{
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		hists:     map[string]*Histogram{},
		sampleCap: capacity,
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given upper
// bounds on first use (bounds are sorted defensively; later calls may pass
// nil). Panics if bounds are empty at creation.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("telemetry: histogram %q registered without bounds", name))
		}
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Sample appends one time-series row holding the current value of every
// registered counter and gauge, stamped with virtual time at. Once the
// ring is full the oldest row is overwritten (its map is reused, so
// steady-state sampling of a stable metric set does not grow the heap).
func (r *Registry) Sample(at sim.Time) {
	if r == nil {
		return
	}
	var vals map[string]float64
	if len(r.rows) < r.sampleCap {
		vals = make(map[string]float64, len(r.counters)+len(r.gauges))
		r.rows = append(r.rows, sampleRow{at: at, vals: vals})
	} else {
		row := &r.rows[r.rowNext]
		row.at = at
		clear(row.vals)
		vals = row.vals
		r.rowNext++
		if r.rowNext == len(r.rows) {
			r.rowNext = 0
		}
		r.rowFull = true
		r.rowsEvicted++
	}
	for name, c := range r.counters {
		vals[name] = float64(c.v)
	}
	for name, g := range r.gauges {
		vals[name] = g.v
	}
}

// Samples returns the number of retained time-series rows.
func (r *Registry) Samples() int {
	if r == nil {
		return 0
	}
	return len(r.rows)
}

// sampleOrder walks the retained rows oldest-first, calling fn for each.
func (r *Registry) sampleOrder(fn func(*sampleRow)) {
	if r == nil {
		return
	}
	if !r.rowFull {
		for i := range r.rows {
			fn(&r.rows[i])
		}
		return
	}
	for i := r.rowNext; i < len(r.rows); i++ {
		fn(&r.rows[i])
	}
	for i := 0; i < r.rowNext; i++ {
		fn(&r.rows[i])
	}
}
