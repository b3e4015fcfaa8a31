package serve

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// FuzzLoadSnapshot: LoadSnapshotFile parses snapshot files handed to
// sgdserve -snapshot. Whatever the bytes, it never panics, every snapshot it
// accepts has at least one weight and only finite ones, and saving an
// accepted snapshot and loading it back reproduces it bit for bit.
func FuzzLoadSnapshot(f *testing.F) {
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.json")
	if err := SaveSnapshot(seed, &Snapshot{
		Version: 3, Model: "lr", Dim: 3, Weights: []float64{0.5, math.Copysign(0, -1), 1e-300, -2.25e10},
		Loss: 0.25, Epoch: 7, PublishedUnixNano: 1,
		Fingerprint: core.Fingerprint{Engine: "async/cpu-par(4)", Model: "lr", Dataset: "covtype", N: 300, Threads: 4, Seed: 1},
	}); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte(`{"model":"svm","dim":1,"weights":[1]}`))
	f.Add([]byte(`{"weights":[]}`))
	f.Add([]byte(`{"weights":[1e400]}`))
	f.Add([]byte(`{"weights":[NaN]}`))
	f.Add([]byte(`{"weights":null,"dim":-1}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, in []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		sn, err := LoadSnapshotFile(path)
		if err != nil {
			return
		}
		if len(sn.Weights) == 0 || !tensor.AllFinite(sn.Weights) {
			t.Fatalf("accepted a snapshot with weights %v", sn.Weights)
		}
		again := filepath.Join(dir, "again.json")
		if err := SaveSnapshot(again, sn); err != nil {
			t.Fatalf("saving an accepted snapshot: %v", err)
		}
		back, err := LoadSnapshotFile(again)
		if err != nil {
			t.Fatalf("reloading a saved snapshot: %v", err)
		}
		// DeepEqual compares floats with ==, which cannot tell -0 from 0.
		for i, w := range sn.Weights {
			if math.Float64bits(back.Weights[i]) != math.Float64bits(w) {
				t.Fatalf("weight %d: saved %v, loaded %v", i, w, back.Weights[i])
			}
		}
		if !reflect.DeepEqual(back, sn) {
			t.Fatalf("save/load changed the snapshot:\n%+v\n%+v", sn, back)
		}
	})
}
