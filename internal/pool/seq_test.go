package pool

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// seqTrace runs n unit-cost workers for steps turns each and returns the
// resume order as worker ids.
func seqTrace(seed int64, n, steps int) []int {
	s := NewSequencer(seed)
	var order []int
	for k := 0; k < n; k++ {
		k := k
		s.Go(func(t *Turn) {
			for i := 0; i < steps; i++ {
				order = append(order, k)
				t.Tick(1)
			}
		})
	}
	s.Run()
	return order
}

func TestSequencerReplaysExactly(t *testing.T) {
	a := seqTrace(7, 5, 20)
	b := seqTrace(7, 5, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different interleavings:\n%v\n%v", a, b)
	}
	c := seqTrace(8, 5, 20)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical interleavings: %v", a)
	}
	counts := make(map[int]int)
	for _, k := range a {
		counts[k]++
	}
	for k := 0; k < 5; k++ {
		if counts[k] != 20 {
			t.Fatalf("worker %d resumed %d times, want 20", k, counts[k])
		}
	}
}

// TestSequencerIsSingleThreaded guards the scheduler against silently
// falling back to real concurrency: worker bodies sleep inside their turn,
// so any overlap between two turns would be caught by the entry counter
// (and, in CI, by the race detector on the unsynchronised maxSeen).
func TestSequencerIsSingleThreaded(t *testing.T) {
	s := NewSequencer(3)
	var running atomic.Int32
	maxSeen := int32(0)
	for k := 0; k < 8; k++ {
		s.Go(func(tn *Turn) {
			for i := 0; i < 10; i++ {
				if c := running.Add(1); c > maxSeen {
					maxSeen = c
				}
				time.Sleep(200 * time.Microsecond)
				running.Add(-1)
				tn.Tick(1)
			}
		})
	}
	s.Run()
	if maxSeen != 1 {
		t.Fatalf("observed %d workers running concurrently, want 1", maxSeen)
	}
}

// TestSequencerStragglerPacing checks the virtual-time discipline: a worker
// whose turns cost 10 units should complete roughly a tenth of its steps by
// the time unit-cost peers finish theirs, and the makespan should stretch to
// the straggler's total cost.
func TestSequencerStragglerPacing(t *testing.T) {
	s := NewSequencer(1)
	const steps = 100
	progressAtPeerExit := -1
	slowDone := 0
	fastDone := 0
	s.Go(func(tn *Turn) { // straggler: 10x cost per step
		for i := 0; i < steps; i++ {
			slowDone++
			tn.Tick(10)
		}
	})
	s.Go(func(tn *Turn) {
		for i := 0; i < steps; i++ {
			fastDone++
			tn.Tick(1)
		}
		progressAtPeerExit = slowDone
	})
	s.Run()
	if slowDone != steps || fastDone != steps {
		t.Fatalf("workers did not finish: slow=%d fast=%d", slowDone, fastDone)
	}
	// When the fast worker exits at virtual time ~100 the straggler has
	// ticked ~10 times (1 per 10 virtual units).
	if progressAtPeerExit < 5 || progressAtPeerExit > 20 {
		t.Fatalf("straggler had %d/%d steps done at peer exit, want ~10", progressAtPeerExit, steps)
	}
	if m := s.Makespan(); m != 10*steps {
		t.Fatalf("makespan = %v, want %v", m, 10*steps)
	}
	if w := s.TotalWork(); w != 11*steps {
		t.Fatalf("total work = %v, want %v", w, 11*steps)
	}
}

// TestSequencerGate exercises the SSP-style readiness predicate: a worker
// gated on the other's progress must never run more than bound steps ahead,
// and an all-gated schedule must still terminate via the deadlock-break.
func TestSequencerGate(t *testing.T) {
	s := NewSequencer(5)
	const steps, bound = 50, 3
	prog := [2]int{}
	maxLead := 0
	for k := 0; k < 2; k++ {
		k := k
		s.Go(func(tn *Turn) {
			tn.Gate(func() bool { return prog[k]-prog[1-k] <= bound })
			for i := 0; i < steps; i++ {
				if lead := prog[k] - prog[1-k]; lead > maxLead {
					maxLead = lead
				}
				prog[k]++
				tn.Tick(1)
			}
		})
	}
	s.Run()
	if prog[0] != steps || prog[1] != steps {
		t.Fatalf("gated workers did not finish: %v", prog)
	}
	if maxLead > bound+1 {
		t.Fatalf("worker ran %d steps ahead, bound %d", maxLead, bound)
	}
}
