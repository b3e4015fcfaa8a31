package regress

import (
	"strings"
	"testing"
)

// Every row of the strategy table must build, on every device it accepts, an
// engine whose Name is exactly the fingerprint's engine axis — the agreement
// the table exists to guarantee.
func TestStrategyTableAgreesWithEngineNames(t *testing.T) {
	seen := map[string]bool{}
	configs := FullMatrix()
	for _, strategy := range []string{"sync", "async"} {
		c := configs[0]
		c.Strategy, c.Device, c.Threads = strategy, "cpu-seq", 1
		configs = append(configs, c)
	}
	for _, c := range configs {
		seen[c.Strategy] = true
		e, _, _, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Fingerprint().Key(), err)
		}
		if got, want := e.Name(), c.Fingerprint().Engine; got != want {
			t.Errorf("engine names itself %q, fingerprint says %q", got, want)
		}
	}
	for s := range strategies {
		if !seen[s] {
			t.Errorf("strategy %q is in the table but in no matrix", s)
		}
	}
}

// Build must refuse every malformed config with the error text callers and
// docs quote.
func TestConfigBuildRejects(t *testing.T) {
	valid := func(strategy string) Config {
		for _, c := range FullMatrix() {
			if c.Strategy == strategy {
				return c
			}
		}
		t.Fatalf("no %s config in the matrix", strategy)
		return Config{}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		from   string
		want   string
	}{
		{"dataset", func(c *Config) { c.Dataset = "mnist" }, "sync", "mnist"},
		{"n", func(c *Config) { c.N = 0 }, "sync", "N, Epochs and Step must be positive"},
		{"epochs", func(c *Config) { c.Epochs = 0 }, "async", "N, Epochs and Step must be positive"},
		{"step", func(c *Config) { c.Step = 0 }, "ps-sync", "N, Epochs and Step must be positive"},
		{"task", func(c *Config) { c.Task = "mlp" }, "sync", `regress: unknown task "mlp"`},
		{"strategy", func(c *Config) { c.Strategy = "bsp" }, "sync", `regress: unknown strategy "bsp"`},
		{"sync device", func(c *Config) { c.Device = "tpu" }, "sync", `regress: unknown device "tpu"`},
		{"async device", func(c *Config) { c.Device = "cluster" }, "async", `regress: unknown device "cluster"`},
		{"ps-sync device", func(c *Config) { c.Device = "gpu" }, "ps-sync", `regress: strategy "ps-sync" requires the cluster device, got "gpu"`},
		{"ps-async device", func(c *Config) { c.Device = "cpu-par" }, "ps-async", `regress: strategy "ps-async" requires the cluster device, got "cpu-par"`},
		{"local-sync device", func(c *Config) { c.Device = "gpu" }, "local-sync", `regress: strategy "local-sync" requires the cpu-par device, got "gpu"`},
		{"local-async device", func(c *Config) { c.Device = "cluster" }, "local-async", `regress: strategy "local-async" requires the cpu-par device, got "cluster"`},
		{"local-sync H", func(c *Config) { c.H = 0 }, "local-sync", `regress: strategy "local-sync" requires H > 0`},
		{"local-async H", func(c *Config) { c.H = -1 }, "local-async", `regress: strategy "local-async" requires H > 0`},
		{"hetero-sync device", func(c *Config) { c.Device = "gpu" }, "hetero-sync", `regress: strategy "hetero-sync" requires the cpu+gpu device, got "gpu"`},
		{"hetero-async device", func(c *Config) { c.Device = "cpu-par" }, "hetero-async", `regress: strategy "hetero-async" requires the cpu+gpu device, got "cpu-par"`},
	}
	for _, tc := range cases {
		c := valid(tc.from)
		tc.mutate(&c)
		e, _, _, err := c.Build()
		if err == nil {
			t.Errorf("%s: Build accepted the config (engine %s)", tc.name, e.Name())
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
}
