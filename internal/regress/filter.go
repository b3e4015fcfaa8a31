package regress

import (
	"fmt"
	"sort"
	"strings"
)

// MatrixFilter trims a config set along the strategy/device/dataset axes
// and applies scale overrides — the matrix flags of cmd/sgdgate. Each axis
// filter is a comma-separated allow-list; empty keeps every value.
type MatrixFilter struct {
	Strategies string
	Devices    string
	Datasets   string
	// Only keeps configs whose fingerprint key contains the substring
	// (empty keeps all) — the quick way to pick one config off the matrix.
	Only string
	// N, Epochs and Threads override the matrix defaults when positive.
	// Threads only applies to configs that model a thread/worker axis.
	N, Epochs, Threads int
}

// Apply filters the configs. A filter token that matches nothing in the
// input set is an error, not a silent no-op: a typo like -strategies=snyc
// must fail the invocation rather than quietly gate an empty matrix.
// Selecting zero configs with individually-valid tokens (an impossible
// combination) is an error for the same reason.
func (f MatrixFilter) Apply(configs []Config) ([]Config, error) {
	axes := []struct {
		name, filter string
		get          func(Config) string
	}{
		{"strategy", f.Strategies, func(c Config) string { return c.Strategy }},
		{"device", f.Devices, func(c Config) string { return c.Device }},
		{"dataset", f.Datasets, func(c Config) string { return c.Dataset }},
	}
	allow := make([]map[string]bool, len(axes))
	for i, ax := range axes {
		if ax.filter == "" {
			continue
		}
		allow[i] = map[string]bool{}
		for _, tok := range strings.Split(ax.filter, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			found := false
			for _, c := range configs {
				if ax.get(c) == tok {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("regress: %s filter token %q matches no configuration in the matrix (valid: %s)",
					ax.name, tok, distinctValues(configs, ax.get))
			}
			allow[i][tok] = true
		}
	}
	var out []Config
	for _, c := range configs {
		keep := f.Only == "" || strings.Contains(c.Fingerprint().Key(), f.Only)
		for i, ax := range axes {
			if allow[i] != nil && !allow[i][ax.get(c)] {
				keep = false
			}
		}
		if !keep {
			continue
		}
		if f.N > 0 {
			c.N = f.N
		}
		if f.Epochs > 0 {
			c.Epochs = f.Epochs
		}
		if f.Threads > 0 && c.Threads > 0 {
			c.Threads = f.Threads
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		if f.Only != "" {
			return nil, fmt.Errorf("regress: -only %q matches no configuration in the matrix (keys: %s)",
				f.Only, distinctValues(configs, func(c Config) string { return c.Fingerprint().Key() }))
		}
		return nil, fmt.Errorf("regress: the filters selected no configurations (strategies: %s; devices: %s; datasets: %s)",
			distinctValues(configs, func(c Config) string { return c.Strategy }),
			distinctValues(configs, func(c Config) string { return c.Device }),
			distinctValues(configs, func(c Config) string { return c.Dataset }))
	}
	return out, nil
}

// distinctValues renders the sorted distinct values of one config axis —
// the "did you mean" half of the filter errors, so a typo like
// -strategies=snyc or -only=local-snc shows what the matrix actually
// contains instead of leaving the caller to read the source.
func distinctValues(configs []Config, get func(Config) string) string {
	seen := map[string]bool{}
	var vals []string
	for _, c := range configs {
		if v := get(c); !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	sort.Strings(vals)
	return strings.Join(vals, ", ")
}
