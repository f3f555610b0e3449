package predictor

import (
	"testing"

	"concordia/internal/costmodel"
	"concordia/internal/ran"
)

// FuzzLoadQuantileTree hardens tree deserialization: arbitrary bytes must
// never panic, and any accepted tree must route and predict without
// crashing.
func FuzzLoadQuantileTree(f *testing.F) {
	// Seed with a genuine serialized tree plus malformed variants.
	data := profileDecode(500, 99, costmodel.Env{PoolCores: 2})
	tree, err := TrainQuantileTree(ran.TaskLDPCDecode,
		[]ran.Feature{ran.FCodeblocks, ran.FSNRdB}, data,
		TreeConfig{MaxLeaves: 8, MinLeaf: 30})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := tree.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{"nodes":[{"leaf":true,"leaf_id":0,"samples":[5]}]}`))
	f.Add([]byte(`{"nodes":[{"leaf":false,"left":1,"right":1},{"leaf":true}]}`))
	f.Add([]byte(`{`))
	for _, c := range malformedLayouts {
		f.Add([]byte(c.json))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		loaded, err := LoadQuantileTree(in)
		if err != nil {
			return
		}
		var fv ran.FeatureVector
		fv.Set(ran.FCodeblocks, 3)
		fv.Set(ran.FSNRdB, 10)
		_ = loaded.Predict(fv)
		loaded.Observe(fv, 12345)
		_ = loaded.LeafID(fv)
	})
}
