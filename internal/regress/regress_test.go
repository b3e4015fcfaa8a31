package regress

import (
	"os"
	"testing"
)

const goldenDir = "testdata/golden"

// All 12 gated configurations — the paper's 8-way cube, the two
// parameter-server tiers and the two Local-SGD configs — must have a
// committed golden of the right discipline: exact curves for the
// deterministic synchronous engines, quantile envelopes for the
// asynchronous ones.
func TestMatrixFullyCovered(t *testing.T) {
	configs := FullMatrix()
	if len(configs) != 12 {
		t.Fatalf("full matrix has %d configs, want 12: the paper's 8 plus 2 ps tiers plus 2 local-sgd", len(configs))
	}
	for _, c := range configs {
		key := c.Fingerprint().Key()
		g, err := Load(goldenDir, key)
		if err != nil {
			t.Errorf("%s: no committed golden: %v", key, err)
			continue
		}
		want := KindEnvelope
		if c.Deterministic() {
			want = KindGolden
		}
		if g.Kind != want {
			t.Errorf("%s: golden kind %q, want %q", key, g.Kind, want)
		}
		if g.Kind == KindEnvelope && (len(g.P10) != c.Epochs+1 || len(g.P90) != c.Epochs+1) {
			t.Errorf("%s: envelope length %d/%d, want %d", key, len(g.P10), len(g.P90), c.Epochs+1)
		}
		if g.Kind == KindGolden && len(g.Losses) != c.Epochs+1 {
			t.Errorf("%s: golden curve length %d, want %d", key, len(g.Losses), c.Epochs+1)
		}
	}
}

// The gate must pass on an untouched tree: every engine still reproduces
// its committed golden or envelope.
func TestGatePassesOnUntouchedTree(t *testing.T) {
	rep := Gate(goldenDir, FullMatrix())
	for _, r := range rep.Results {
		if r.Status != StatusPass {
			t.Errorf("%s: %s (%s)", r.Key, r.Status, r.Detail)
		}
	}
	if !rep.Pass {
		t.Fatal("gate failed on an untouched tree")
	}
}

// Deliberately perturbing an engine's update rule (here: a mis-scaled step,
// the canonical silent-regression shape) must fail the gate — for a
// deterministic golden and for an asynchronous envelope alike.
func TestGateFailsOnPerturbedUpdateRule(t *testing.T) {
	var det, env *Config
	for i, c := range DefaultMatrix() {
		if c.Deterministic() && det == nil {
			det = &DefaultMatrix()[i]
		}
		if !c.Deterministic() && env == nil {
			env = &DefaultMatrix()[i]
		}
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		factor float64
	}{
		{"deterministic", *det, 1.0001}, // even a 0.01% step change must trip the tight gate
		{"envelope", *env, 4.0},         // an async perturbation must escape the quantile band
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Load(goldenDir, tc.cfg.Fingerprint().Key())
			if err != nil {
				t.Fatal(err)
			}
			perturbed := tc.cfg
			perturbed.Step *= tc.factor
			res := Compare(perturbed, g)
			if res.Status != StatusFail {
				t.Fatalf("perturbed %s config passed the gate: %+v", tc.name, res)
			}
		})
	}
}

// A missing golden must fail the aggregate gate, not silently shrink
// coverage.
func TestGateFailsOnMissingGolden(t *testing.T) {
	c := DefaultMatrix()[0]
	c.N = 128 // a scale with no committed golden
	rep := Gate(goldenDir, []Config{c})
	if rep.Pass || rep.Results[0].Status != StatusMissing {
		t.Fatalf("missing golden: %+v", rep.Results[0])
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := Golden{Key: "k", Kind: KindGolden, Losses: []float64{1, 0.5}, RelTol: 1e-9}
	if err := Save(dir, g); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindGolden || len(got.Losses) != 2 || got.RelTol != 1e-9 {
		t.Fatalf("round trip mangled golden: %+v", got)
	}
	if _, err := Load(dir, "absent"); !os.IsNotExist(err) {
		t.Fatalf("loading absent golden: err = %v, want IsNotExist", err)
	}
}

// A filter token that matches nothing must be an error — a typo like
// "snyc" must not silently gate an empty (or wrongly shrunken) matrix.
func TestMatrixFilterRejectsUnmatchedTokens(t *testing.T) {
	m := FullMatrix()
	if _, err := (MatrixFilter{Strategies: "sync,snyc"}).Apply(m); err == nil {
		t.Fatal("strategy token \"snyc\" matched no config but produced no error")
	}
	if _, err := (MatrixFilter{Only: "no-such-key"}).Apply(m); err == nil {
		t.Fatal("-only matching no fingerprint key produced no error")
	}
	// No config of the matrix runs on a CPU+GPU split.
	if _, err := (MatrixFilter{Only: "hetero-"}).Apply(m); err == nil {
		t.Fatal("-only hetero- matched a config of the deleted tier")
	}
	if _, err := (MatrixFilter{Strategies: "ps-sync", Devices: "gpu"}).Apply(m); err == nil {
		t.Fatal("impossible strategy x device combination produced no error")
	}
}

func TestMatrixFilterSelectsAndOverrides(t *testing.T) {
	got, err := (MatrixFilter{Strategies: "ps-sync,ps-async", N: 100, Epochs: 3, Threads: 2}).Apply(FullMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ps filter kept %d configs, want 2", len(got))
	}
	for _, c := range got {
		if c.Device != "cluster" || c.N != 100 || c.Epochs != 3 || c.Threads != 2 {
			t.Fatalf("override not applied: %+v", c)
		}
	}
	got, err = (MatrixFilter{Only: "ps-sync-cluster"}).Apply(FullMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Strategy != "ps-sync" {
		t.Fatalf("-only substring selected %+v, want the single ps-sync config", got)
	}
}

// The ps tier engines must honour the regress seeding and determinism
// contracts the gate disciplines assume.
func TestPSMatrixDisciplines(t *testing.T) {
	for _, c := range PSMatrix() {
		if (c.Strategy == "ps-sync") != c.Deterministic() {
			t.Fatalf("%s: Deterministic() = %v", c.Strategy, c.Deterministic())
		}
	}
	c := PSMatrix()[0] // ps-sync: must replay exactly
	c.Epochs = 3
	a, err := RunSeed(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeed(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Losses {
		if a.Losses[i] != b.Losses[i] {
			t.Fatalf("ps-sync replay differs at epoch %d: %v vs %v", i, a.Losses[i], b.Losses[i])
		}
	}
}

func TestRunSeedDeterministicReplay(t *testing.T) {
	c := DefaultMatrix()[0]
	a, err := RunSeed(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeed(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Losses {
		if a.Losses[i] != b.Losses[i] {
			t.Fatalf("seeded replay differs at epoch %d: %v vs %v", i, a.Losses[i], b.Losses[i])
		}
	}
	if a.SecPerEpoch != b.SecPerEpoch {
		t.Fatalf("seeded replay modeled time differs: %v vs %v", a.SecPerEpoch, b.SecPerEpoch)
	}
}
