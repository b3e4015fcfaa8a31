package regress

import (
	"strings"
	"testing"
)

// FuzzMatrixFilter: MatrixFilter is the parser of the gate's matrix flags.
// Whatever the flags, Apply never panics, never returns an empty selection
// without an error, and every config it returns comes from a matrix config
// that passes each axis allow-list and -only, with the scale overrides
// applied.
func FuzzMatrixFilter(f *testing.F) {
	f.Add("sync,async", "", "", "", 0, 0, 0)
	f.Add("ps-sync,ps-async", "", "", "", 100, 3, 2)
	f.Add("local-sync", "gpu", "", "", 0, 0, 0)
	f.Add(" sync , ,", "cpu-par", "w8a", "n400", -1, 0, 8)
	f.Add("", "", "", "hetero-", 0, 12, 0) // a deleted tier: must be an error
	f.Add(",", "", "", "", 0, 0, 0)
	f.Add("", "", "covtype,covtype", "_t56_", 7, -3, 1)
	f.Fuzz(func(t *testing.T, strategies, devices, datasets, only string, n, epochs, threads int) {
		filter := MatrixFilter{
			Strategies: strategies, Devices: devices, Datasets: datasets, Only: only,
			N: n, Epochs: epochs, Threads: threads,
		}
		matrix := FullMatrix()
		got, err := filter.Apply(matrix)
		if err != nil {
			return
		}
		if len(got) == 0 {
			t.Fatalf("%+v: empty selection without an error", filter)
		}
		// (strategy, device, dataset) names one matrix config, so every
		// returned config can be traced to its source.
		src := map[string]Config{}
		for _, c := range matrix {
			src[c.Strategy+"|"+c.Device+"|"+c.Dataset] = c
		}
		for _, c := range got {
			s, ok := src[c.Strategy+"|"+c.Device+"|"+c.Dataset]
			switch {
			case !ok:
				t.Fatalf("%+v: returned %s, which is not in the matrix", filter, c.Fingerprint().Key())
			case !allowed(strategies, s.Strategy) || !allowed(devices, s.Device) || !allowed(datasets, s.Dataset):
				t.Fatalf("%+v: returned %s, which an axis filter excludes", filter, s.Fingerprint().Key())
			case !strings.Contains(s.Fingerprint().Key(), only):
				t.Fatalf("%+v: returned %s, which -only excludes", filter, s.Fingerprint().Key())
			case c.N != override(n, s.N) || c.Epochs != override(epochs, s.Epochs):
				t.Fatalf("%+v: %s has n=%d epochs=%d", filter, s.Fingerprint().Key(), c.N, c.Epochs)
			case s.Threads > 0 && c.Threads != override(threads, s.Threads), s.Threads == 0 && c.Threads != 0:
				t.Fatalf("%+v: %s has threads=%d", filter, s.Fingerprint().Key(), c.Threads)
			}
		}
	})
}

// allowed is the allow-list rule stated independently of Apply: an empty
// filter keeps every value, otherwise the value must be one of its
// comma-separated, space-trimmed tokens.
func allowed(filter, v string) bool {
	if filter == "" {
		return true
	}
	for _, tok := range strings.Split(filter, ",") {
		if strings.TrimSpace(tok) == v {
			return true
		}
	}
	return false
}

// override is the scale-override rule: a positive flag replaces the default.
func override(flag, def int) int {
	if flag > 0 {
		return flag
	}
	return def
}
