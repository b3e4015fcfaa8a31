//go:build race

// Package race reports whether the binary was built with the race detector,
// for the tests that must not run by-design-racy engine configurations
// under it.
package race

// Enabled reports whether this binary was built with -race. Genuinely
// concurrent Hogwild over overlapping supports is racy by design (that
// asynchrony is the paper's subject), so tests that want real concurrency
// on shared components must skip under the detector and leave the -race
// coverage to the disjoint-support variants.
const Enabled = true
