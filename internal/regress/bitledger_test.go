package regress

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ps"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/bitledger.txt from the current tree")

const ledgerPath = "testdata/bitledger.txt"

// ledgerEpochs is how many epochs each ledger cell trains before hashing.
const ledgerEpochs = 3

// ledgerExcluded names what the ledger leaves out, and why: every cell below
// races real goroutines, so its bits are not a function of the seed.
var ledgerExcluded = []string{
	"hogwild with 1 < Threads <= GOMAXPROCS, healthy: static nnz segments race real goroutines on the shared vector",
	"hogbatch/par with 1 < Threads <= GOMAXPROCS, healthy: batch workers race real goroutines on the shared vector",
	"ps-async with more than one worker, healthy: worker goroutines race for claims and the server applies pushes in arrival order",
	"any engine under a controller without Sequential: the fault decisions replay, the interleaving does not",
}

// ledgerCell is one engine configuration on one dataset and task.
type ledgerCell struct {
	name string
	m    model.Model
	mk   func() core.Engine
}

func ledgerDataset(t *testing.T, name string, rows int) (*data.Dataset, data.Spec) {
	t.Helper()
	spec, err := data.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(float64(rows) / float64(spec.N))
	ds := data.Generate(spec)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	return ds, spec
}

// hogbatchCells are the four Hogbatch modes at batch 32.
func hogbatchCells(prefix string, m model.BatchModel, ds *data.Dataset, step float64) []ledgerCell {
	mk := func(mode core.HogbatchMode, threads int) func() core.Engine {
		return func() core.Engine {
			e := core.NewHogbatch(m, ds, step, mode)
			e.Batch = 32
			e.Threads = threads
			return e
		}
	}
	return []ledgerCell{
		{prefix + "/hogbatch-seq", m, mk(core.HogbatchSeq, 56)},
		{prefix + "/hogbatch-par-56", m, mk(core.HogbatchParCPU, 56)},
		{prefix + "/hogbatch-par-1", m, mk(core.HogbatchParCPU, 1)},
		{prefix + "/hogbatch-gpu", m, mk(core.HogbatchGPU, 56)},
	}
}

// gpuVariantCells are the simulated GPU kernel's layouts at a fixed warp
// bound, so that more than one warp is resident and the inter-warp merge
// (and, at 16 warps over enough rows, the replica averaging) is pinned.
func gpuVariantCells(prefix string, m model.Model, ds *data.Dataset, step float64, variants ...string) []ledgerCell {
	var cells []ledgerCell
	for _, v := range variants {
		cells = append(cells, ledgerCell{prefix + "/gpu-hogwild-" + v, m, func() core.Engine {
			e := core.NewGPUHogwild(m, ds, step)
			e.Combine = strings.Contains(v, "combine")
			e.WarpPerExample = strings.HasPrefix(v, "warp")
			e.SharedMemory = strings.HasPrefix(v, "shared")
			e.MaxWarps = 4
			if e.SharedMemory {
				e.MaxWarps = 16
			}
			return e
		}})
	}
	return cells
}

func hogwildCells(prefix string, m model.Model, ds *data.Dataset, step float64) []ledgerCell {
	return []ledgerCell{
		{prefix + "/hogwild-1", m, func() core.Engine { return core.NewHogwild(m, ds, step, 1) }},
		{prefix + "/hogwild-56", m, func() core.Engine { return core.NewHogwild(m, ds, step, 56) }},
	}
}

// ledgerCells is the ledger's table: w8a and covtype × LR and SVM through
// every per-seed-deterministic engine path, plus MLP on covtype through the
// Hogbatch modes and Hogwild, plus real-sim (the Zipf generator path the
// benchmark trains on) × LR and SVM through Hogwild and both Local-SGD
// engines. The simulated GPU kernel runs at its dataset-scaled occupancy
// (one warp at 200 rows) and in each layout at a fixed warp bound
// (gpuVariantCells), covtype also at 600 rows for two shared-memory blocks.
func ledgerCells(t *testing.T) []ledgerCell {
	var cells []ledgerCell
	const step = 0.1
	for _, dsName := range []string{"w8a", "covtype"} {
		ds, spec := ledgerDataset(t, dsName, 200)
		for _, m := range []model.BatchModel{model.NewLR(ds.D()), model.NewSVM(ds.D())} {
			m := m
			prefix := dsName + "/" + m.Name()
			cells = append(cells, hogwildCells(prefix, m, ds, step)...)
			cells = append(cells,
				ledgerCell{prefix + "/gpu-hogwild", m, func() core.Engine { return core.NewGPUHogwild(m, ds, step) }},
				ledgerCell{prefix + "/sync", m, func() core.Engine { return core.NewSync(linalg.NewCPU(1), m, ds, step) }},
				ledgerCell{prefix + "/local-sync-4x4", m, func() core.Engine { return core.NewLocalSGD(m, ds, step, 4, 4) }},
				ledgerCell{prefix + "/local-async-4x4", m, func() core.Engine { return core.NewAsyncLocalSGD(m, ds, step, 4, 4) }},
				ledgerCell{prefix + "/ps-sync-w4", m, func() core.Engine { return ps.NewEngine(ps.ModeSync, m, ds, step, 4, 2) }},
				ledgerCell{prefix + "/ps-async-w1", m, func() core.Engine { return ps.NewEngine(ps.ModeAsync, m, ds, step, 1, 2) }},
			)
			cells = append(cells, hogbatchCells(prefix, m, ds, step)...)
			cells = append(cells, gpuVariantCells(prefix, m, ds, step, "w4", "combine-w4", "warp-w4", "shared-w16", "shared-combine-w16")...)
		}
		if dsName == "covtype" {
			mlp := model.NewMLPFor(spec)
			cells = append(cells, hogbatchCells("covtype/mlp", mlp, ds, step)...)
			cells = append(cells, hogwildCells("covtype/mlp", mlp, ds, step)...)
		}
	}
	// 600 rows give the shared-memory kernel two thread blocks to average.
	ds600, _ := ledgerDataset(t, "covtype", 600)
	for _, m := range []model.Model{model.NewLR(ds600.D()), model.NewSVM(ds600.D())} {
		cells = append(cells, gpuVariantCells("covtype-600/"+m.Name(), m, ds600, step, "shared-w16")...)
	}
	ds, _ := ledgerDataset(t, "real-sim", 200)
	for _, m := range []model.Model{model.NewLR(ds.D()), model.NewSVM(ds.D())} {
		m := m
		prefix := "real-sim/" + m.Name()
		cells = append(cells, hogwildCells(prefix, m, ds, step)...)
		cells = append(cells,
			ledgerCell{prefix + "/local-sync-4x4", m, func() core.Engine { return core.NewLocalSGD(m, ds, step, 4, 4) }},
			ledgerCell{prefix + "/local-async-4x4", m, func() core.Engine { return core.NewAsyncLocalSGD(m, ds, step, 4, 4) }},
		)
	}
	return cells
}

// ledgerDataRows caps the rows of each registry dataset the ledger hashes.
const ledgerDataRows = 4000

// dataHash returns a sha256 prefix over the generated CSR arrays and labels
// of registry dataset name at no more than ledgerDataRows rows: the
// generator's own bits, independent of any engine.
func dataHash(t *testing.T, name string) string {
	t.Helper()
	spec, err := data.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	if spec.N > ledgerDataRows {
		spec = spec.Scaled(ledgerDataRows / float64(spec.N))
	}
	ds := data.Generate(spec)
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, ds.X.RowPtr)
	binary.Write(h, binary.LittleEndian, ds.X.ColIdx)
	binary.Write(h, binary.LittleEndian, ds.X.Values)
	binary.Write(h, binary.LittleEndian, ds.Y)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// hashRecorder folds every recorder call, in call order, into a running
// hash. Phases, counters and metrics are hashed by name, so renumbering the
// taxonomies moves nothing.
type hashRecorder struct {
	mu  sync.Mutex
	h   hash.Hash
	buf [8]byte
}

func (r *hashRecorder) write(kind, name string, bits uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.h, "%s %s ", kind, name)
	binary.LittleEndian.PutUint64(r.buf[:], bits)
	r.h.Write(r.buf[:])
}

func (r *hashRecorder) Phase(p obs.Phase, s float64) {
	r.write("phase", p.String(), math.Float64bits(s))
}
func (r *hashRecorder) Add(c obs.Counter, d int64) { r.write("add", c.String(), uint64(d)) }
func (r *hashRecorder) Observe(m obs.Metric, v float64) {
	r.write("observe", m.String(), math.Float64bits(v))
}
func (r *hashRecorder) EndEpoch(s float64) { r.write("end", "", math.Float64bits(s)) }

// ledgerRegimes are the three controller states every cell runs under.
var ledgerRegimes = []string{"healthy", "storm", "detached"}

// ledgerHash trains a fresh engine of c for ledgerEpochs epochs under regime
// and returns a sha256 prefix over the recorder calls and the final weights'
// bit patterns.
func ledgerHash(t *testing.T, c ledgerCell, regime string) string {
	t.Helper()
	e := c.mk()
	if regime != "healthy" {
		storm, err := chaos.Lookup("storm")
		if err != nil {
			t.Fatal(err)
		}
		ctl := chaos.New(storm, 11)
		ctl.Sequential = true
		ctl.Deadline = 2
		if !core.InjectChaos(e, ctl) {
			t.Fatalf("%s: engine is not a ChaosHost", c.name)
		}
		if regime == "detached" {
			core.InjectChaos(e, nil)
		}
	}
	rec := &hashRecorder{h: sha256.New()}
	core.Instrument(e, rec)
	w := c.m.InitParams(1)
	for ep := 0; ep < ledgerEpochs; ep++ {
		rec.EndEpoch(e.RunEpoch(w))
	}
	for _, v := range w {
		rec.write("w", "", math.Float64bits(v))
	}
	return fmt.Sprintf("%x", rec.h.Sum(nil)[:8])
}

// bitLedger returns the ledger's sorted "<cell> <hash>" lines.
func bitLedger(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, c := range ledgerCells(t) {
		for _, regime := range ledgerRegimes {
			lines = append(lines, c.name+"/"+regime+" "+ledgerHash(t, c, regime))
		}
	}
	for _, name := range data.Names() {
		lines = append(lines, "data:"+name+" "+dataHash(t, name))
	}
	sort.Strings(lines)
	return lines
}

func ledgerText(lines []string) string {
	var b strings.Builder
	b.WriteString("# Bit ledger: sha256 prefix over every recorder call and the Float64bits of\n")
	fmt.Fprintf(&b, "# the weights after %d epochs, GOMAXPROCS=2. Regenerate: go test ./internal/regress -run TestBitLedger -update\n", ledgerEpochs)
	fmt.Fprintf(&b, "# data:<name>: sha256 prefix over RowPtr, ColIdx, Values and Y of the generated registry dataset at <= %d rows\n", ledgerDataRows)
	for _, x := range ledgerExcluded {
		b.WriteString("# excluded: " + x + "\n")
	}
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	return b.String()
}

// TestBitLedger pins the exact bits of every per-seed-deterministic engine
// path: a refactor that claims to move no bits must leave
// testdata/bitledger.txt untouched. A detached controller must also
// reproduce the healthy bits. FMA contraction moves last bits off amd64, so
// there the test compares two in-process runs instead of the committed
// hashes.
func TestBitLedger(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })

	got := bitLedger(t)
	hashOf := make(map[string]string, len(got))
	for _, l := range got {
		cell, h, _ := strings.Cut(l, " ")
		hashOf[cell] = h
	}
	for cell, h := range hashOf {
		if base, ok := strings.CutSuffix(cell, "/detached"); ok && hashOf[base+"/healthy"] != h {
			t.Errorf("%s: detached controller moved the healthy bits", base)
		}
	}
	if runtime.GOARCH != "amd64" {
		again := bitLedger(t)
		for i := range got {
			if got[i] != again[i] {
				t.Errorf("replay differs: %q vs %q", got[i], again[i])
			}
		}
		return
	}
	if *updateLedger {
		if err := os.WriteFile(ledgerPath, []byte(ledgerText(got)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := make(map[string]string)
	for _, l := range strings.Split(string(raw), "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		cell, h, _ := strings.Cut(l, " ")
		want[cell] = h
	}
	for cell, h := range hashOf {
		if w, ok := want[cell]; !ok {
			t.Errorf("%s: not in %s", cell, ledgerPath)
		} else if w != h {
			t.Errorf("%s: bits moved: %s, ledger has %s", cell, h, w)
		}
	}
	for cell := range want {
		if _, ok := hashOf[cell]; !ok {
			t.Errorf("%s: in %s but no longer produced", cell, ledgerPath)
		}
	}
}
