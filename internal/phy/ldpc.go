// Package phy is the slice of the 5G physical layer this reproduction
// actually runs. It has two jobs:
//
//   - The calibration experiment decodes real LDPC codewords sent over an
//     AWGN channel and checks that the analytic cost model
//     (internal/costmodel) has the right shape: decode time linear in
//     codeblocks, decoder iterations falling as SNR rises.
//   - internal/ran takes its 38.212 transport-block segmentation arithmetic
//     (Segment) and modulation orders (Modulation) from here.
//
// No task runtime the scheduler or the predictor sees comes from this
// package; those come from the cost model. The LDPC code is a seeded
// construction of the same shape as the 38.212 base graphs, a substitution
// documented in DESIGN.md.
package phy

import (
	"fmt"
	"math"

	"concordia/internal/rng"
)

// LDPCCode is a systematic irregular repeat-accumulate (IRA) LDPC code. The
// parity-check matrix is H = [A | D], where A is a sparse seeded binary
// matrix over the K information bits (column weight ≈ 3, the regime 38.212's
// base graphs live in) and D is the dual-diagonal accumulator over the M
// parity bits. This structure permits O(E) recursive encoding — the same
// property the 3GPP base graphs are designed for — while remaining a genuine
// LDPC code decodable with belief propagation.
//
// This is the documented substitution for the standardized BG1/BG2 tables:
// it preserves the code-rate range, the sparse Tanner-graph structure, and
// the iteration-count-versus-SNR runtime behaviour that Concordia's WCET
// model must predict.
type LDPCCode struct {
	K int // information bits per codeblock
	M int // parity bits per codeblock

	// The Tanner graph below is immutable after construction and therefore
	// shared freely by every Decoder of the code.
	//
	// checkVars[r] lists the information-bit columns participating in check
	// row r (the row support of A).
	checkVars [][]int
	// edges[r] lists every variable index (information and parity) adjacent
	// to check r in the full Tanner graph, including accumulator edges.
	edges [][]int
}

// Decoder is the mutable working state of belief-propagation decoding for
// one code: everything a decode writes lives here, keeping LDPCCode itself
// read-only. A Decoder is reused across calls, so steady-state decoding is
// allocation-free, but it must not be used by two goroutines at once; give
// each goroutine its own from NewDecoder.
type Decoder struct {
	code      *LDPCCode
	checkMsg  [][]float64
	vmsg      [][]float64
	posterior []float64
	hard      []byte
}

// NewDecoder returns a decoder for the code with its message and posterior
// buffers allocated.
func (c *LDPCCode) NewDecoder() *Decoder {
	d := &Decoder{
		code:      c,
		checkMsg:  make([][]float64, c.M),
		vmsg:      make([][]float64, c.M),
		posterior: make([]float64, c.N()),
		hard:      make([]byte, c.N()),
	}
	for r := 0; r < c.M; r++ {
		d.checkMsg[r] = make([]float64, len(c.edges[r]))
		d.vmsg[r] = make([]float64, len(c.edges[r]))
	}
	return d
}

// MaxLDPCIterations is the decoder iteration cap, matching the bounded
// iterative decoding FlexRAN uses.
const MaxLDPCIterations = 20

// NewLDPCCode constructs a code with K information bits and M parity bits
// (rate K/(K+M)) using a deterministic seed. K and M must be positive and
// M >= 4 so every check row can receive distinct sockets.
func NewLDPCCode(k, m int, seed uint64) (*LDPCCode, error) {
	if k <= 0 || m < 4 {
		return nil, fmt.Errorf("phy: invalid LDPC dimensions K=%d M=%d", k, m)
	}
	c := &LDPCCode{
		K:         k,
		M:         m,
		checkVars: make([][]int, m),
	}
	r := rng.New(seed)
	// Column weight 3 (or fewer for very small M): each information bit
	// lands in 3 distinct check rows, spread by random placement. One
	// reusable []bool scratch marks the rows taken by the current column
	// (cleared via the picked list, so construction stays O(K·weight)
	// without a fresh map per column).
	weight := 3
	if m < weight {
		weight = m
	}
	seen := make([]bool, m)
	picked := make([]int, 0, weight)
	for col := 0; col < k; col++ {
		picked = picked[:0]
		for len(picked) < weight {
			row := r.Intn(m)
			if seen[row] {
				continue
			}
			seen[row] = true
			picked = append(picked, row)
			c.checkVars[row] = append(c.checkVars[row], col)
		}
		for _, row := range picked {
			seen[row] = false
		}
	}
	// Precompute the full Tanner adjacency: check r connects its info
	// columns, parity r, and parity r-1 (accumulator).
	c.edges = make([][]int, m)
	for row := 0; row < m; row++ {
		es := make([]int, 0, len(c.checkVars[row])+2)
		es = append(es, c.checkVars[row]...)
		es = append(es, k+row)
		if row > 0 {
			es = append(es, k+row-1)
		}
		c.edges[row] = es
	}
	return c, nil
}

// N returns the codeword length K+M.
func (c *LDPCCode) N() int { return c.K + c.M }

// Encode maps K information bits to an N-bit systematic codeword
// [info | parity]. The accumulator makes parity bit r satisfy
// p_r = p_{r-1} ⊕ (A·u)_r.
func (c *LDPCCode) Encode(info []byte) ([]byte, error) {
	if len(info) != c.K {
		return nil, fmt.Errorf("phy: LDPC encode wants %d bits, got %d", c.K, len(info))
	}
	out := make([]byte, c.N())
	copy(out, info)
	parity := out[c.K:]
	var prev byte
	for r := 0; r < c.M; r++ {
		s := prev
		for _, col := range c.checkVars[r] {
			s ^= info[col] & 1
		}
		parity[r] = s
		prev = s
	}
	return out, nil
}

// CheckSyndrome reports whether the hard-decision word satisfies all parity
// checks.
func (c *LDPCCode) CheckSyndrome(word []byte) bool {
	if len(word) != c.N() {
		return false
	}
	parity := word[c.K:]
	for r := 0; r < c.M; r++ {
		s := parity[r]
		if r > 0 {
			s ^= parity[r-1]
		}
		for _, col := range c.checkVars[r] {
			s ^= word[col] & 1
		}
		if s&1 != 0 {
			return false
		}
	}
	return true
}

// DecodeResult reports the outcome of an LDPC decoding attempt.
type DecodeResult struct {
	Info       []byte // hard-decision information bits
	Iterations int    // BP iterations executed (1..MaxLDPCIterations)
	Converged  bool   // syndrome satisfied before the iteration cap
}

// Decode runs normalized min-sum belief propagation on channel LLRs
// (positive LLR ⇒ bit 0 more likely, the standard convention). It stops
// early when the syndrome check passes; the iteration count is the quantity
// whose SNR dependence the paper's WCET predictor must capture.
//
// The result is a pure function of the LLRs: no state carries over from
// one decode to the next.
func (d *Decoder) Decode(llr []float64) (*DecodeResult, error) {
	res := new(DecodeResult)
	if err := d.DecodeInto(res, llr); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodeInto is Decode with a caller-owned result: res.Info's capacity is
// reused across calls, so steady-state decoding of same-size codeblocks
// allocates nothing (DESIGN.md §5f).
func (d *Decoder) DecodeInto(res *DecodeResult, llr []float64) error {
	c := d.code
	n := c.N()
	if len(llr) != n {
		return fmt.Errorf("phy: LDPC decode wants %d LLRs, got %d", n, len(llr))
	}
	const alpha = 0.8 // min-sum normalization factor

	for r := range d.checkMsg {
		for i := range d.checkMsg[r] {
			d.checkMsg[r][i] = 0
		}
	}
	posterior, hard := d.posterior, d.hard

	for iter := 1; iter <= MaxLDPCIterations; iter++ {
		// Flooding schedule: refresh posteriors from channel LLRs plus all
		// current check-to-variable messages.
		copy(posterior, llr)
		for r := 0; r < c.M; r++ {
			for i, v := range c.edges[r] {
				posterior[v] += d.checkMsg[r][i]
			}
		}
		// Check update: normalized min-sum over variable-to-check messages
		// (posterior minus this check's own previous contribution).
		for r := 0; r < c.M; r++ {
			es := c.edges[r]
			vmsg := d.vmsg[r]
			var sign float64 = 1
			min1, min2 := math.Inf(1), math.Inf(1)
			min1Idx := -1
			for i, v := range es {
				m := posterior[v] - d.checkMsg[r][i]
				vmsg[i] = m
				a := math.Abs(m)
				if m < 0 {
					sign = -sign
				}
				if a < min1 {
					min2 = min1
					min1 = a
					min1Idx = i
				} else if a < min2 {
					min2 = a
				}
			}
			for i := range es {
				mag := min1
				if i == min1Idx {
					mag = min2
				}
				s := sign
				if vmsg[i] < 0 {
					s = -s
				}
				d.checkMsg[r][i] = alpha * s * mag
			}
		}
		// Posterior + hard decision + syndrome.
		copy(posterior, llr)
		for r := 0; r < c.M; r++ {
			for i, v := range c.edges[r] {
				posterior[v] += d.checkMsg[r][i]
			}
		}
		for v := 0; v < n; v++ {
			if posterior[v] < 0 {
				hard[v] = 1
			} else {
				hard[v] = 0
			}
		}
		if c.CheckSyndrome(hard) {
			res.Info = append(res.Info[:0], hard[:c.K]...)
			res.Iterations = iter
			res.Converged = true
			return nil
		}
	}
	res.Info = append(res.Info[:0], hard[:c.K]...)
	res.Iterations = MaxLDPCIterations
	res.Converged = false
	return nil
}

// MaxCodeblockBits mirrors the 38.212 base-graph-1 limit of 8448 information
// bits per LDPC codeblock.
const MaxCodeblockBits = 8448
