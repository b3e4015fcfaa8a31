package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, fmt.Errorf("VmHWM: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

var pacerNapSpec = syscall.NsecToTimespec(int64(pacerNap))

// nap sleeps the open-loop pacer in nanosleep(2): with the system call's
// overhead it wakes about every 0.1 ms. A goroutine in time.Sleep wakes on
// the runtime's millisecond timer grid instead (see openLoop).
func nap() {
	syscall.Nanosleep(&pacerNapSpec, nil) //nolint:errcheck // an interrupted nap only releases the next requests sooner
}
