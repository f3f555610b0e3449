package predictor

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"concordia/internal/ran"
	"concordia/internal/sim"
)

// The paper's offline pipeline emits the trained decision trees as generated
// C code (~6 K lines) that FlexRAN links against. This file provides the
// equivalent deployment path for the reproduction: JSON persistence (train
// once, load at startup) and Go source-code generation for a zero-allocation
// traversal function.

// treeJSON is the serialized tree form.
type treeJSON struct {
	Kind     int        `json:"kind"`
	Features []int      `json:"features"`
	Margin   float64    `json:"margin"`
	RingSize int        `json:"ring_size"`
	Nodes    []nodeJSON `json:"nodes"`
}

// nodeJSON flattens the tree: children reference node indices; leaves carry
// their training samples (capped) so a loaded tree predicts immediately.
type nodeJSON struct {
	Leaf      bool    `json:"leaf"`
	Feature   int     `json:"feature,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Left      int     `json:"left,omitempty"`
	Right     int     `json:"right,omitempty"`
	LeafID    int     `json:"leaf_id,omitempty"`
	Samples   []int64 `json:"samples,omitempty"`
}

// maxSerializedSamples caps per-leaf persisted samples; the online phase
// refills the rings anyway.
const maxSerializedSamples = 512

// MarshalJSON serializes the tree, including a bounded sample of each
// leaf's ring buffer.
func (t *QuantileTree) MarshalJSON() ([]byte, error) {
	tj := treeJSON{
		Kind:     int(t.Kind),
		Margin:   t.Margin,
		RingSize: DefaultRingSize,
	}
	// Every leaf ring has the capacity the tree was trained or loaded with.
	if len(t.leaves) > 0 {
		tj.RingSize = cap(t.leaves[0].ring.buf)
	}
	for _, f := range t.Features {
		tj.Features = append(tj.Features, int(f))
	}
	tj.Nodes = make([]nodeJSON, len(t.nodes))
	for i := range t.nodes {
		n := &t.nodes[i]
		if !n.isLeaf() {
			tj.Nodes[i] = nodeJSON{
				Feature:   int(n.feature),
				Threshold: n.threshold,
				Left:      int(n.left),
				Right:     int(n.right),
			}
			continue
		}
		ring := &t.leaves[n.right].ring
		vals := ring.Values()
		keep := len(vals)
		if keep > maxSerializedSamples {
			keep = maxSerializedSamples
		}
		samples := make([]int64, 0, keep)
		// Keep the largest values first so Max survives truncation.
		max := ring.Max()
		samples = append(samples, int64(max))
		for _, v := range vals {
			if len(samples) >= keep {
				break
			}
			if v != max {
				samples = append(samples, int64(v))
			}
		}
		tj.Nodes[i] = nodeJSON{Leaf: true, LeafID: int(n.right), Samples: samples}
	}
	return json.Marshal(tj)
}

// maxRingSize bounds the per-leaf ring a serialized tree may ask for; every
// leaf allocates its ring up front.
const maxRingSize = 1 << 20

// LoadQuantileTree reconstructs a tree from MarshalJSON output. Leaf rings
// are seeded with the persisted samples.
func LoadQuantileTree(data []byte) (*QuantileTree, error) {
	var tj treeJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		return nil, err
	}
	if len(tj.Nodes) == 0 {
		return nil, errors.New("predictor: empty serialized tree")
	}
	ringSize := tj.RingSize
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	if ringSize > maxRingSize {
		return nil, fmt.Errorf("predictor: ring size %d above %d", ringSize, maxRingSize)
	}
	t := &QuantileTree{Kind: ran.TaskKind(tj.Kind), Margin: tj.Margin}
	if t.Margin <= 0 {
		t.Margin = 1
	}
	for _, f := range tj.Features {
		t.Features = append(t.Features, ran.Feature(f))
	}
	// Children must follow their parent, which rules out cycles; the
	// pre-order pass then rejects shared children, and a tree it does not
	// cover whole has unreachable nodes.
	nodes := make([]node, len(tj.Nodes))
	numLeaves := 0
	for i, nj := range tj.Nodes {
		if nj.Leaf {
			nodes[i] = node{left: leafMark, right: int32(nj.LeafID)}
			numLeaves++
			continue
		}
		if nj.Feature < 0 || nj.Feature >= int(ran.NumFeatures) {
			return nil, fmt.Errorf("predictor: node %d splits on unknown feature %d", i, nj.Feature)
		}
		for _, c := range [2]int{nj.Left, nj.Right} {
			if c <= i || c >= len(tj.Nodes) {
				return nil, fmt.Errorf("predictor: node %d has invalid child %d", i, c)
			}
		}
		nodes[i] = node{
			threshold: nj.Threshold,
			feature:   ran.Feature(nj.Feature),
			left:      int32(nj.Left),
			right:     int32(nj.Right),
		}
	}
	nodes, err := preorder(nodes)
	if err != nil {
		return nil, err
	}
	if len(nodes) != len(tj.Nodes) {
		return nil, fmt.Errorf("predictor: %d nodes unreachable from the root", len(tj.Nodes)-len(nodes))
	}
	t.nodes = nodes
	// Leaf IDs index t.leaves, so they must be exactly 0..numLeaves-1.
	t.leaves = make([]leaf, numLeaves)
	for _, nj := range tj.Nodes {
		if !nj.Leaf {
			continue
		}
		if nj.LeafID < 0 || nj.LeafID >= numLeaves {
			return nil, fmt.Errorf("predictor: leaf id %d outside 0..%d", nj.LeafID, numLeaves-1)
		}
		lf := &t.leaves[nj.LeafID]
		if lf.ring.buf != nil {
			return nil, fmt.Errorf("predictor: duplicate leaf id %d", nj.LeafID)
		}
		lf.ring = *NewRingBuffer(ringSize)
		for _, v := range nj.Samples {
			lf.ring.Push(sim.Time(v))
		}
	}
	return t, nil
}

// GenerateGo emits a standalone Go function that routes a feature vector to
// its leaf index — the reproduction's analogue of the paper's generated C
// traversal code. The emitted function has signature
//
//	func <name>(f [N]float64) int
//
// where indices follow ran.Feature ordering.
func (t *QuantileTree) GenerateGo(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "// Code generated from a trained quantile decision tree for %v. DO NOT EDIT.\n", t.Kind)
	fmt.Fprintf(&sb, "func %s(f [%d]float64) int {\n", name, int(ran.NumFeatures))
	if len(t.nodes) == 0 {
		sb.WriteString("\treturn 0\n")
	}
	// Pre-order emits each if-block's then-branch (the left subtree) right
	// after its condition; the block closes just before the right child.
	depth := t.depths()
	closes := make([]bool, len(t.nodes))
	for i := range t.nodes {
		n := &t.nodes[i]
		pad := strings.Repeat("\t", depth[i]+1)
		if closes[i] {
			fmt.Fprintf(&sb, "%s}\n", pad[1:])
		}
		if n.isLeaf() {
			fmt.Fprintf(&sb, "%sreturn %d\n", pad, n.right)
			continue
		}
		fmt.Fprintf(&sb, "%sif f[%d] <= %v {\n", pad, int(n.feature), n.threshold)
		closes[n.right] = true
	}
	sb.WriteString("}\n")
	return sb.String()
}
