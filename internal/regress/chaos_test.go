package regress

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/chaos"
)

// chaosMatrix is a trimmed matrix for the degradation tests: one sync and
// one async config per device on the sparse dataset, small enough to run in
// seconds under the sequential scheduler.
func chaosMatrix() []Config {
	var out []Config
	for _, strategy := range []string{"sync", "async"} {
		for _, device := range []string{"cpu-par", "gpu"} {
			c := Config{
				Strategy: strategy, Device: device, Task: "lr",
				Dataset: "w8a", N: 300, Threads: 16,
				Epochs: 10, Seeds: 1, BaseSeed: 1,
			}
			if device == "gpu" {
				c.Threads = 0
			}
			if strategy == "sync" {
				c.Step = 2.0
			} else {
				c.Step = 0.5
			}
			out = append(out, c)
		}
	}
	return out
}

// TestDegradationContrast is the PR's acceptance criterion: under the storm
// plan (a 10x straggler on one worker plus 1% dropped updates) every async
// engine still reaches its loss threshold with a small time stretch, while
// the undeadlined synchronous engines' time-to-threshold degrades by at
// least 5x.
func TestDegradationContrast(t *testing.T) {
	plan, err := chaos.Lookup("storm")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Degradation(chaosMatrix(), plan, ChaosOpts{Seed: 1, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AsyncAllReached {
		for _, cr := range rep.Configs {
			if cr.Strategy == "async" {
				t.Logf("async %s: faulted=%+v", cr.Config, cr.Faulted)
			}
		}
		t.Fatal("an async engine failed to reach its loss threshold under storm")
	}
	if rep.MinSyncSlowdown >= 0 && rep.MinSyncSlowdown < 5 {
		t.Errorf("mildest sync degradation %.2fx, want >= 5x (or unreached)", rep.MinSyncSlowdown)
	}
	if rep.MaxAsyncSlowdown > 3 {
		t.Errorf("worst async degradation %.2fx, want small (< 3x)", rep.MaxAsyncSlowdown)
	}
	// The report must be JSON-encodable (no Inf/NaN sentinels).
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
}

// TestDegradationDeadlineMitigates: arming the sync barrier deadline caps
// the degradation below the undeadlined factor.
func TestDegradationDeadlineMitigates(t *testing.T) {
	plan, err := chaos.Lookup("straggler")
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosMatrix()[0] // sync/cpu-par
	if cfg.Strategy != "sync" {
		t.Fatal("matrix order changed")
	}
	bsp, err := RunChaos(cfg, plan, ChaosOpts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dl, err := RunChaos(cfg, plan, ChaosOpts{Seed: 1, Deadline: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, d := nominalRun(bsp), nominalRun(dl)
	if !b.Reached || b.Slowdown < 9 {
		t.Fatalf("undeadlined sync run: %+v, want ~10x slowdown", b)
	}
	if !d.Reached {
		t.Fatalf("deadlined sync run never reached threshold: %+v", d)
	}
	if d.Slowdown >= b.Slowdown/2 {
		t.Errorf("deadline did not mitigate: %.2fx vs %.2fx undeadlined", d.Slowdown, b.Slowdown)
	}
}

// TestRunChaosSequentialReplay: the same (config, plan, seed) under the
// sequential scheduler reproduces the faulted loss curve exactly.
func TestRunChaosSequentialReplay(t *testing.T) {
	cfg := chaosMatrix()[2] // async/cpu-par
	if cfg.Strategy != "async" {
		t.Fatal("matrix order changed")
	}
	plan, _ := chaos.Lookup("storm")
	opts := ChaosOpts{Seed: 5, Sequential: true}
	a, err := RunChaos(cfg, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(cfg, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Faulted[0].FinalLoss != b.Faulted[0].FinalLoss {
		t.Fatalf("sequential chaos runs differ: %v vs %v",
			a.Faulted[0].FinalLoss, b.Faulted[0].FinalLoss)
	}
	opts.Seed = 6
	c, err := RunChaos(cfg, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Faulted[0].FinalLoss == c.Faulted[0].FinalLoss {
		t.Error("different chaos seeds produced identical faulted curves")
	}
}

// TestRunChaosReplaysPSAsync: under the sequential scheduler the whole
// config report replays, not only the faulted curves. ps-async's healthy
// baseline races real goroutines unless it runs on the same fault-free
// virtual-time schedule, and every faulted threshold is cut from it.
func TestRunChaosReplaysPSAsync(t *testing.T) {
	cfg := PSMatrix()[1]
	if cfg.Strategy != "ps-async" {
		t.Fatal("matrix order changed")
	}
	cfg.N, cfg.Epochs = 200, 8
	plan, _ := chaos.Lookup("storm")
	opts := ChaosOpts{Seed: 1, Sequential: true}
	a, err := RunChaos(cfg, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(cfg, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sequential ps-async reports differ:\n%+v\n%+v", a, b)
	}
}

// TestChaosIntensitySweep: scaling the plan down to zero recovers the
// healthy run.
func TestChaosIntensitySweep(t *testing.T) {
	cfg := chaosMatrix()[0]
	plan, _ := chaos.Lookup("straggler")
	rep, err := RunChaos(cfg, plan, ChaosOpts{Seed: 1, Intensities: []float64{0, 0.5, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Faulted) != 3 {
		t.Fatalf("got %d faulted runs, want 3", len(rep.Faulted))
	}
	zero := rep.Faulted[0]
	if !zero.Reached || zero.Slowdown < 0.99 || zero.Slowdown > 1.01 {
		t.Errorf("intensity-0 run is not the healthy run: %+v", zero)
	}
	if rep.Faulted[1].Slowdown <= zero.Slowdown || rep.Faulted[2].Slowdown <= rep.Faulted[1].Slowdown {
		t.Errorf("slowdown not monotone in intensity: %v, %v, %v",
			zero.Slowdown, rep.Faulted[1].Slowdown, rep.Faulted[2].Slowdown)
	}
}
