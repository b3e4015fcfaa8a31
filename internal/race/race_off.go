//go:build !race

package race

// Enabled reports whether this binary was built with -race.
const Enabled = false
