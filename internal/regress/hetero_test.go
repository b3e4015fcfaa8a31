package regress

import (
	"strings"
	"testing"

	"repro/internal/chaos"
)

// The heterogeneous tier must honour the gate disciplines: the barriered
// engine replays exactly despite overlapping its two backends (golden), the
// apply-on-arrival one replays per seed but reschedules across seeds
// (envelope).
func TestHeteroMatrixDisciplines(t *testing.T) {
	for _, c := range HeteroMatrix() {
		if (c.Strategy == "hetero-sync") != c.Deterministic() {
			t.Fatalf("%s: Deterministic() = %v", c.Strategy, c.Deterministic())
		}
	}
	c := HeteroMatrix()[0] // hetero-sync: must replay exactly
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
			t.Fatalf("hetero-sync replay differs at epoch %d: %v vs %v", i, a.Losses[i], b.Losses[i])
		}
	}
	if a.SecPerEpoch != b.SecPerEpoch {
		t.Fatalf("hetero-sync replay modeled time differs: %v vs %v", a.SecPerEpoch, b.SecPerEpoch)
	}
}

// Satellite chaos test, async half: under the storm plan the apply-on-arrival
// engine must still reach its threshold with bounded degradation — the GPU's
// stretched batches simply lose claims to the CPU stream. Measured slowdown
// at gate scale is ~1.9.
func TestStormHeteroAsyncAbsorbs(t *testing.T) {
	plan, err := chaos.Lookup("storm")
	if err != nil {
		t.Fatal(err)
	}
	c := HeteroMatrix()[1]
	rep, err := RunChaos(c, plan, ChaosOpts{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	nom := nominalRun(rep)
	if !nom.Reached {
		t.Fatal("hetero-async under storm never reached threshold")
	}
	t.Logf("hetero-async slowdown %.3f", nom.Slowdown)
	if nom.Slowdown >= 2.5 {
		t.Errorf("hetero-async slowdown %.3f; want < 2.5 (absorption, not amplification)", nom.Slowdown)
	}
}

// The Degradation ladder must classify the new tier correctly and the
// paper's contrast must hold within the family: the async engine absorbs the
// storm, while the barriered engine degrades more — at gate scale its
// straggler-forced shift to near-all-CPU also costs statistical efficiency
// (one-shot averaging of 8 replica trajectories), so it either misses the
// threshold inside the epoch budget (infinite degradation, Slowdown
// sentinel -1) or reaches it strictly slower than the async engine.
func TestStormDegradationClassifiesHeteroTier(t *testing.T) {
	plan, err := chaos.Lookup("storm")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Degradation(HeteroMatrix(), plan, ChaosOpts{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Configs) != 2 {
		t.Fatalf("degradation over HeteroMatrix has %d configs, want 2", len(rep.Configs))
	}
	if !rep.AsyncAllReached {
		t.Error("hetero-async did not reach threshold under the nominal storm")
	}
	var syncRun *ChaosRun
	for i := range rep.Configs {
		if IsSyncStrategy(rep.Configs[i].Strategy) {
			syncRun = nominalRun(rep.Configs[i])
		}
	}
	if syncRun == nil {
		t.Fatal("no sync config in the hetero degradation report")
	}
	if syncRun.Reached && syncRun.Slowdown <= rep.MaxAsyncSlowdown {
		t.Errorf("sync/async contrast inverted within the hetero tier: sync %.3f <= max async %.3f",
			syncRun.Slowdown, rep.MaxAsyncSlowdown)
	}
}

// Satellite filter test: the axis tokens "hetero-sync"/"hetero-async" and
// the "cpu+gpu" device must select exactly the new tier, and a typo must
// list the now-14-config axis values.
func TestMatrixFilterHeteroStrategies(t *testing.T) {
	got, err := (MatrixFilter{Strategies: "hetero-sync,hetero-async"}).Apply(FullMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("hetero strategy filter kept %d configs, want 2", len(got))
	}
	for _, c := range got {
		if !strings.HasPrefix(c.Strategy, "hetero-") {
			t.Fatalf("filter leaked a non-hetero config: %+v", c)
		}
	}
	got, err = (MatrixFilter{Devices: "cpu+gpu"}).Apply(FullMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("cpu+gpu device filter kept %d configs, want 2", len(got))
	}
	got, err = (MatrixFilter{Only: "hetero-async"}).Apply(FullMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Strategy != "hetero-async" {
		t.Fatalf("-only hetero-async selected %+v", got)
	}

	_, err = (MatrixFilter{Strategies: "hetero-snyc"}).Apply(FullMatrix())
	if err == nil {
		t.Fatal("strategy typo produced no error")
	}
	for _, want := range []string{`"hetero-snyc"`, "hetero-async", "hetero-sync", "local-sync"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	_, err = (MatrixFilter{Devices: "cpu-gpu"}).Apply(FullMatrix())
	if err == nil {
		t.Fatal("device typo produced no error")
	}
	if !strings.Contains(err.Error(), "cpu+gpu") {
		t.Errorf("device error %q does not list cpu+gpu", err)
	}
}
