package predictor

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"concordia/internal/costmodel"
	"concordia/internal/ran"
	"concordia/internal/rng"
)

func TestTreeJSONRoundTrip(t *testing.T) {
	data := profileDecode(6000, 40, costmodel.Env{PoolCores: 4})
	tree := trainDecodeTree(t, data)
	blob, err := tree.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadQuantileTree(blob)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind != tree.Kind || loaded.NumLeaves() != tree.NumLeaves() {
		t.Fatalf("structure changed: %d leaves -> %d", tree.NumLeaves(), loaded.NumLeaves())
	}
	// Routing must be identical, and predictions must survive (the leaf max
	// is preserved by construction).
	for _, s := range data[:500] {
		if tree.LeafID(s.Features) != loaded.LeafID(s.Features) {
			t.Fatal("leaf routing changed through serialization")
		}
		if tree.Predict(s.Features) != loaded.Predict(s.Features) {
			t.Fatalf("prediction changed: %v vs %v",
				tree.Predict(s.Features), loaded.Predict(s.Features))
		}
	}
}

// TestTreeJSONRingCapacity checks that leaf rings load back with the
// capacity they were trained with, not the default.
func TestTreeJSONRingCapacity(t *testing.T) {
	data := profileDecode(2000, 42, costmodel.Env{PoolCores: 4})
	for _, ring := range []int{DefaultRingSize, 64} {
		tree, err := TrainQuantileTree(ran.TaskLDPCDecode,
			[]ran.Feature{ran.FCodeblocks, ran.FSNRdB}, data, TreeConfig{MaxLeaves: 16, RingSize: ring})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := tree.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadQuantileTree(blob)
		if err != nil {
			t.Fatal(err)
		}
		for i := range loaded.leaves {
			if got := cap(loaded.leaves[i].ring.buf); got != ring {
				t.Fatalf("ring %d: leaf %d loaded with capacity %d", ring, i, got)
			}
		}
	}
}

func TestLoadedTreeStillAdapts(t *testing.T) {
	data := profileDecode(4000, 41, costmodel.Env{PoolCores: 4})
	tree := trainDecodeTree(t, data)
	blob, _ := tree.MarshalJSON()
	loaded, err := LoadQuantileTree(blob)
	if err != nil {
		t.Fatal(err)
	}
	f := data[0].Features
	before := loaded.Predict(f)
	loaded.Observe(f, before*3)
	if loaded.Predict(f) <= before {
		t.Fatal("loaded tree did not adapt online")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadQuantileTree([]byte("{")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := LoadQuantileTree([]byte(`{"nodes":[]}`)); err == nil {
		t.Fatal("empty tree accepted")
	}
	// Cyclic/invalid node references must be rejected.
	if _, err := LoadQuantileTree([]byte(`{"nodes":[{"leaf":false,"left":0,"right":0}]}`)); err == nil {
		t.Fatal("self-referencing node accepted")
	}
}

// malformedLayouts are serialized trees whose node array is not a tree in
// the flat layout LoadQuantileTree accepts, each with a fragment of the
// error it must produce. FuzzLoadQuantileTree seeds with them too.
var malformedLayouts = []struct{ name, json, err string }{
	{"child before parent", `{"nodes":[{"feature":2,"threshold":1,"left":1,"right":2},` +
		`{"feature":2,"threshold":0,"left":0,"right":3},{"leaf":true},{"leaf":true,"leaf_id":1}]}`,
		"node 1 has invalid child 0"},
	{"child at parent", `{"nodes":[{"feature":2,"threshold":1,"left":0,"right":1},{"leaf":true}]}`,
		"node 0 has invalid child 0"},
	{"child out of range", `{"nodes":[{"feature":2,"threshold":1,"left":1,"right":9},{"leaf":true}]}`,
		"node 0 has invalid child 9"},
	{"shared child", `{"nodes":[{"feature":2,"threshold":1,"left":1,"right":2},` +
		`{"feature":7,"threshold":5,"left":3,"right":4},{"feature":7,"threshold":5,"left":3,"right":4},` +
		`{"leaf":true},{"leaf":true,"leaf_id":1}]}`,
		"two parents"},
	{"duplicate leaf id", `{"nodes":[{"feature":2,"threshold":1,"left":1,"right":2},` +
		`{"leaf":true,"leaf_id":0},{"leaf":true,"leaf_id":0}]}`,
		"duplicate leaf id 0"},
	{"sparse leaf ids", `{"nodes":[{"feature":2,"threshold":1,"left":1,"right":2},` +
		`{"leaf":true,"leaf_id":0},{"leaf":true,"leaf_id":5}]}`,
		"leaf id 5 outside 0..1"},
	{"negative leaf id", `{"nodes":[{"leaf":true,"leaf_id":-1}]}`,
		"leaf id -1 outside 0..0"},
	{"unreachable node", `{"nodes":[{"leaf":true,"leaf_id":0},{"leaf":true,"leaf_id":1}]}`,
		"1 nodes unreachable"},
	{"unknown feature", `{"nodes":[{"feature":99,"threshold":1,"left":1,"right":2},` +
		`{"leaf":true},{"leaf":true,"leaf_id":1}]}`,
		"unknown feature 99"},
	{"ring too large", `{"ring_size":1099511627776,"nodes":[{"leaf":true,"leaf_id":0}]}`,
		"ring size 1099511627776 above"},
}

func TestLoadRejectsMalformedLayouts(t *testing.T) {
	for _, c := range malformedLayouts {
		tree, err := LoadQuantileTree([]byte(c.json))
		if err == nil {
			t.Errorf("%s: accepted, %d leaves", c.name, tree.NumLeaves())
		} else if !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %q, want it to mention %q", c.name, err, c.err)
		}
	}
	// The well-formed neighbour of those cases loads.
	tree, err := LoadQuantileTree([]byte(`{"nodes":[{"feature":2,"threshold":1,"left":1,"right":2},` +
		`{"leaf":true,"leaf_id":1,"samples":[4]},{"leaf":true,"leaf_id":0,"samples":[9]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi ran.FeatureVector
	hi.Set(ran.FCodeblocks, 2)
	if tree.NumLeaves() != 2 || tree.LeafID(lo) != 1 || tree.LeafID(hi) != 0 ||
		tree.Predict(lo) != 4 || tree.Predict(hi) != 9 {
		t.Fatalf("leaves %d, routes %d/%d, predicts %v/%v",
			tree.NumLeaves(), tree.LeafID(lo), tree.LeafID(hi), tree.Predict(lo), tree.Predict(hi))
	}
}

// goldenTrees trains the two fixed trees whose serialized bytes are pinned:
// the default configuration, and a small-ring tree whose rings have
// wrapped both in training and online.
func goldenTrees(t *testing.T) (dflt, wrapped *QuantileTree) {
	t.Helper()
	data := profileDecode(6000, 40, costmodel.Env{PoolCores: 4})
	dflt, err := TrainQuantileTree(ran.TaskLDPCDecode,
		[]ran.Feature{ran.FCodeblocks, ran.FSNRdB}, data, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err = TrainQuantileTree(ran.TaskLDPCDecode,
		[]ran.Feature{ran.FCodeblocks, ran.FSNRdB, ran.FNumUEs}, data[:4000],
		TreeConfig{MaxLeaves: 24, RingSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range profileDecode(3000, 41, costmodel.Env{PoolCores: 8}) {
		wrapped.Observe(s.Features, s.Runtime)
	}
	return dflt, wrapped
}

// TestTreeOutputGolden pins MarshalJSON's bytes for fixed training sets, and
// the String and GenerateGo text of the default tree. The default tree's
// digests were taken from the pointer-tree implementation that preceded the
// flat node array, so they also pin that the flat layout, its leaf IDs and
// the cached ring maximum serialize exactly as before.
func TestTreeOutputGolden(t *testing.T) {
	dflt, wrapped := goldenTrees(t)
	for _, c := range []struct {
		name   string
		tree   *QuantileTree
		leaves int
		depth  int
		digest string
	}{
		{"default", dflt, 128, 10, "a40449c927e44418dd0188303dbc69a4dcd4e2f67d648567e72c12ece703c227"},
		{"wrapped", wrapped, 24, 8, "7dff4299a145a02aa380bcff57ed684b9b7f7655f2bb063c30dde40129d80569"},
	} {
		blob, err := c.tree.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%s: MarshalJSON digest %s, want %s", c.name, got, c.digest)
		}
		if c.tree.NumLeaves() != c.leaves || c.tree.depth() != c.depth {
			t.Errorf("%s: %d leaves, depth %d; want %d, %d",
				c.name, c.tree.NumLeaves(), c.tree.depth(), c.leaves, c.depth)
		}
	}
	for _, c := range []struct{ name, text, digest string }{
		{"String", dflt.String(), "d77e462aad286c1567bff9e21f3f9b4524a61b8e78ff0103fb59bb089e159296"},
		{"GenerateGo", dflt.GenerateGo("route"), "fc17030ed552b6ea840ffbf1180ec4cdcac50746773ca6e2b8e01ccdbf5dbf03"},
	} {
		sum := sha256.Sum256([]byte(c.text))
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%s digest %s, want %s", c.name, got, c.digest)
		}
	}
}

// genLine is one parsed statement of GenerateGo's output: a condition
// "if f[feat] <= thr {", a "return leaf", or a closing brace.
type genLine struct {
	cond  bool
	feat  int
	thr   float64
	leaf  int
	close bool
}

// parseGenerated reads back the body GenerateGo emits, thresholds included.
func parseGenerated(t *testing.T, src string) []genLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(src), "\n")
	var out []genLine
	// Skip the comment, the signature and the function's closing brace.
	for _, line := range lines[2 : len(lines)-1] {
		line = strings.TrimSpace(line)
		var g genLine
		var err error
		switch {
		case line == "}":
			g.close = true
		case strings.HasPrefix(line, "return "):
			_, err = fmt.Sscanf(line, "return %d", &g.leaf)
		case strings.HasPrefix(line, "if "):
			var thr string
			g.cond = true
			if _, err = fmt.Sscanf(line, "if f[%d] <= %s {", &g.feat, &thr); err == nil {
				g.thr, err = strconv.ParseFloat(thr, 64)
			}
		default:
			err = fmt.Errorf("unexpected statement")
		}
		if err != nil {
			t.Fatalf("generated line %q: %v", line, err)
		}
		out = append(out, g)
	}
	return out
}

// routeGenerated routes f through parsed generated code the way the
// compiled function would, returning the leaf reached from lines[*pos]
// (or -1 for a subtree it only skips) and advancing *pos past the subtree.
func routeGenerated(t *testing.T, lines []genLine, pos *int, f *ran.FeatureVector, live bool) int {
	g := lines[*pos]
	*pos++
	if !g.cond {
		if !live {
			return -1
		}
		return g.leaf
	}
	goLeft := f[g.feat] <= g.thr
	left := routeGenerated(t, lines, pos, f, live && goLeft)
	if !lines[*pos].close {
		t.Fatalf("line %d: want the closing brace of an if", *pos)
	}
	*pos++
	right := routeGenerated(t, lines, pos, f, live && !goLeft)
	if goLeft {
		return left
	}
	return right
}

// TestLeafIDAgreesAcrossForms routes random feature vectors through the
// trained tree, its JSON round trip and its generated Go source: all three
// must pick the same leaf.
func TestLeafIDAgreesAcrossForms(t *testing.T) {
	dflt, wrapped := goldenTrees(t)
	r := rng.New(5)
	for _, tree := range []*QuantileTree{dflt, wrapped} {
		blob, err := tree.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadQuantileTree(blob)
		if err != nil {
			t.Fatal(err)
		}
		gen := parseGenerated(t, tree.GenerateGo("route"))
		seen := make(map[int]bool)
		for i := 0; i < 2000; i++ {
			var f ran.FeatureVector
			f.Set(ran.FCodeblocks, float64(r.Intn(17)))
			f.Set(ran.FSNRdB, r.Uniform(-2, 34))
			f.Set(ran.FNumUEs, float64(r.Intn(18)))
			id := tree.LeafID(f)
			seen[id] = true
			if got := loaded.LeafID(f); got != id {
				t.Fatalf("loaded tree routes %v to leaf %d, trained tree to %d", f, got, id)
			}
			pos := 0
			if got := routeGenerated(t, gen, &pos, &f, true); got != id || pos != len(gen) {
				t.Fatalf("generated code routes %v to leaf %d, trained tree to %d", f, got, id)
			}
		}
		if len(seen) < tree.NumLeaves()/2 {
			t.Fatalf("random vectors reached only %d of %d leaves", len(seen), tree.NumLeaves())
		}
	}
}

func TestGenerateGo(t *testing.T) {
	data := profileDecode(4000, 42, costmodel.Env{PoolCores: 4})
	tree := trainDecodeTree(t, data)
	src := tree.GenerateGo("routeLDPCDecode")
	if !strings.Contains(src, "func routeLDPCDecode(") {
		t.Fatal("missing function signature")
	}
	if !strings.Contains(src, "DO NOT EDIT") {
		t.Fatal("missing generated-code marker")
	}
	// Every leaf must appear as a return.
	returns := strings.Count(src, "return ")
	if returns < tree.NumLeaves() {
		t.Fatalf("generated code has %d returns for %d leaves", returns, tree.NumLeaves())
	}
	_ = ran.NumFeatures
}
