//go:build !linux

package main

import (
	"errors"
	"time"
)

// Off Linux the benchmark still runs: the pacer naps on the Go timer (coarser,
// so loadgen.late_p99_ms is larger) and peak_rss_mb cannot be read.

func peakRSSMB() (float64, error) {
	return 0, errors.New("peak_rss_mb is read from /proc/self/status, which only Linux has")
}

func nap() { time.Sleep(pacerNap) }
