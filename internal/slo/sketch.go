// Package slo is the streaming SLO plane: deterministic mergeable
// quantile sketches over task/DAG latency and deadline slack, a
// virtual-time windowed aggregation engine keyed by (cell, server, slice)
// with per-fault-class miss counters, and latency-quantile / error-budget
// objectives evaluated with multi-window burn-rate rules. Where the PR 3
// tracer and the PR 5 autopsy explain a run after it ends, this package
// answers "are we burning the error budget right now?" while the run is
// still in flight — the data plane ROADMAP item 4's closed-loop controller
// consumes.
//
// Everything follows the repo's determinism contract (DESIGN.md §5b): no
// host clock, virtual timestamps only, sorted iteration, and serial
// fleet-level reductions, so every export is byte-identical across runs and
// across -workers counts. The record path follows the §5f memory
// discipline: after a key's first observation, recording and window
// rotation allocate nothing.
package slo

import (
	"fmt"
	"math"
)

// SketchConfig fixes a sketch's resolution. Two sketches merge only when
// their configs are identical — the bucket layout is part of the merge
// contract.
type SketchConfig struct {
	// Alpha is the relative-error bound: a quantile estimate q̂ for a true
	// value x in [MinValue, MaxValue] satisfies |q̂-x| <= Alpha*x.
	// 0 selects DefaultAlpha.
	Alpha float64
	// MinValue is the smallest magnitude (in ns) the log-linear buckets
	// resolve; values in (-MinValue, MinValue) collapse into an exact zero
	// bucket whose estimate is 0. 0 selects DefaultMinValue.
	MinValue float64
	// MaxValue is the largest magnitude (in ns) resolved at the error
	// bound; records beyond it clamp into the outermost bucket and are
	// counted as clamped. 0 selects DefaultMaxValue.
	MaxValue float64
}

// Default sketch resolution: 1% relative error over [1 µs, 16 s] — six
// decades around the millisecond-scale slot deadlines, ~965 buckets per
// sign at ~7.7 KB per store (uint32 counts).
const (
	DefaultAlpha    = 0.01
	DefaultMinValue = 1e3  // 1 µs in ns
	DefaultMaxValue = 16e9 // 16 s in ns
)

func (c SketchConfig) withDefaults() SketchConfig {
	if c.Alpha <= 0 {
		c.Alpha = DefaultAlpha
	}
	if c.MinValue <= 0 {
		c.MinValue = DefaultMinValue
	}
	if c.MaxValue <= c.MinValue {
		c.MaxValue = DefaultMaxValue
	}
	return c
}

// Sketch is a DDSketch-style log-linear quantile sketch over int64
// nanosecond values (sim.Time durations). Bucket i covers
// (gamma^(i-1), gamma^i] with gamma = (1+alpha)/(1-alpha); the bucket
// midpoint estimate 2*gamma^i/(gamma+1) is within alpha relative error of
// every value in the bucket. Negative values (deadline slack past the
// deadline) land in a mirrored store.
//
// Buckets are fixed flat arrays sized at construction, so Record touches
// only preallocated memory (§5f: zero steady-state allocations), bucket
// counts are integers (merging is exactly associative and commutative),
// and the index of a value is a pure function of the value — a merged
// sketch is byte-identical to the sketch of the concatenated streams.
type Sketch struct {
	cfg      SketchConfig
	gamma    float64
	invLogG  float64 // 1 / ln(gamma)
	minIdx   int     // index of the bucket containing MinValue
	pos, neg []uint32
	zero     uint64 // |v| < MinValue, including exact zeros
	count    uint64
	sum      int64 // exact integer sum; associative under merge
	min, max int64 // exact extrema (valid when count > 0)
	// clamped counts records outside [MinValue, MaxValue] magnitude; they
	// still land in the outermost bucket so quantiles stay defined, but the
	// error bound does not cover them.
	clamped uint64
}

// NewSketch builds an empty sketch with the given resolution.
func NewSketch(cfg SketchConfig) *Sketch {
	cfg = cfg.withDefaults()
	gamma := (1 + cfg.Alpha) / (1 - cfg.Alpha)
	invLogG := 1 / math.Log(gamma)
	minIdx := int(math.Ceil(math.Log(cfg.MinValue) * invLogG))
	maxIdx := int(math.Ceil(math.Log(cfg.MaxValue) * invLogG))
	n := maxIdx - minIdx + 1
	return &Sketch{
		cfg:     cfg,
		gamma:   gamma,
		invLogG: invLogG,
		minIdx:  minIdx,
		pos:     make([]uint32, n),
		neg:     make([]uint32, n),
	}
}

// bucketOf maps a magnitude (>= MinValue by construction of the callers)
// to its store slot, clamping out-of-range indices into the outermost
// buckets.
func (s *Sketch) bucketOf(mag float64) (slot int, clamped bool) {
	i := int(math.Ceil(math.Log(mag)*s.invLogG)) - s.minIdx
	if i < 0 {
		return 0, true
	}
	if i >= len(s.pos) {
		return len(s.pos) - 1, true
	}
	return i, false
}

// Record adds one value (nanoseconds; negative for slack past the
// deadline). The hot path is branch + log + array increment: no
// allocation, no map, no float accumulation.
func (s *Sketch) Record(v int64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	mag := float64(v)
	store := s.pos
	if v < 0 {
		mag = -mag
		store = s.neg
	}
	if mag < s.cfg.MinValue {
		s.zero++
		return
	}
	slot, clamped := s.bucketOf(mag)
	store[slot]++
	if clamped {
		s.clamped++
	}
}

// Min returns the exact minimum recorded value; zero when the sketch is
// empty.
func (s *Sketch) Min() int64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// estimate returns the midpoint value of store slot i: within Alpha
// relative error of every value the bucket covers.
func (s *Sketch) estimate(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i+s.minIdx)) / (s.gamma + 1)
}

// Quantile estimates the q-quantile (the 0-based floor(q*(count-1))-th
// order statistic) in nanoseconds. q is clamped to [0, 1]; an empty sketch
// returns 0. The estimate is within the configured relative-error bound of
// the true order statistic whenever that value's magnitude lies in
// [MinValue, MaxValue]; exact extrema sharpen the outermost answers.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(s.min)
	}
	if q >= 1 {
		return float64(s.max)
	}
	rank := uint64(q * float64(s.count-1)) // 0-based target order statistic
	// Walk ascending value order: most-negative first (neg store from the
	// top), then the zero bucket, then positives.
	var cum uint64
	for i := len(s.neg) - 1; i >= 0; i-- {
		cum += uint64(s.neg[i])
		if cum > rank {
			return -s.estimate(i)
		}
	}
	cum += s.zero
	if cum > rank {
		return 0
	}
	for i := 0; i < len(s.pos); i++ {
		cum += uint64(s.pos[i])
		if cum > rank {
			return s.estimate(i)
		}
	}
	return float64(s.max)
}

// QuantileUs estimates the q-quantile in microseconds.
func (s *Sketch) QuantileUs(q float64) float64 { return s.Quantile(q) / 1e3 }

// Merge folds o into s. Both sketches must share a config (the bucket
// layout is the merge contract); all state is integer, so merging is
// exactly associative and commutative and a serial fleet reduction is
// byte-identical at any worker count.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil || o.count == 0 {
		return nil
	}
	if s.cfg != o.cfg {
		return fmt.Errorf("slo: merging sketches with different configs (%+v vs %+v)", s.cfg, o.cfg)
	}
	for i, c := range o.pos {
		s.pos[i] += c
	}
	for i, c := range o.neg {
		s.neg[i] += c
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.count == 0 || o.max > s.max {
		s.max = o.max
	}
	s.zero += o.zero
	s.count += o.count
	s.sum += o.sum
	s.clamped += o.clamped
	return nil
}

// Reset empties the sketch in place, retaining its bucket arrays — the
// window-rotation path reuses sketches without allocating.
func (s *Sketch) Reset() {
	clear(s.pos)
	clear(s.neg)
	s.zero, s.count, s.clamped = 0, 0, 0
	s.sum, s.min, s.max = 0, 0, 0
}
