package span

import (
	"math"
	"strings"
	"testing"
	"time"
)

// fakeClock drives an SLO engine deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time       { return c.t }
func (c *fakeClock) step(d time.Duration) { c.t = c.t.Add(d) }
func newTestSLO(cfg SLOConfig) (*SLO, *fakeClock) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	s := NewSLO(cfg)
	if s != nil {
		s.now = c.now
		s.start = c.t
	}
	return s, c
}

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("latency<=250ms@99, errors@99.9")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("got %d objectives", len(objs))
	}
	if objs[0].Name != "latency<=250ms@99" || objs[0].Target != 0.99 || objs[0].LatencyBound != 0.25 {
		t.Fatalf("latency objective = %+v", objs[0])
	}
	if math.Abs(objs[1].Target-0.999) > 1e-12 || objs[1].LatencyBound != 0 {
		t.Fatalf("error objective = %+v", objs[1])
	}
	for _, bad := range []string{
		"", "latency<=250ms", "errors@0", "errors@100", "errors@x", "latency<=-1s@99", "wat@99",
		"errors@NaN", "latency<=1s@nan", "errors@+Inf", "errors@1e-400",
	} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Fatalf("ParseObjectives(%q) accepted", bad)
		}
	}
}

// FuzzParseObjectives: every objective the parser accepts is one the SLO
// engine can evaluate — a target strictly inside (0, 1), a finite
// nonnegative latency bound — so a fully bad window burns at a finite,
// positive rate that an alert can compare against its threshold.
func FuzzParseObjectives(f *testing.F) {
	for _, seed := range []string{
		"latency<=250ms@99, errors@99.9", "errors@NaN", "latency<=1s@nan",
		"errors@1e-320", "errors@99.99999999999999", "latency<=0s@50", ",,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseObjectives(spec)
		if err != nil {
			return
		}
		for _, o := range objs {
			if !(o.Target > 0 && o.Target < 1) {
				t.Fatalf("%q: accepted target %v outside (0, 1)", spec, o.Target)
			}
			if math.IsNaN(o.LatencyBound) || math.IsInf(o.LatencyBound, 0) || o.LatencyBound < 0 {
				t.Fatalf("%q: accepted latency bound %v", spec, o.LatencyBound)
			}
		}
		s, _ := newTestSLO(SLOConfig{Objectives: objs})
		s.Record(0, true)
		for _, o := range s.Snapshot().Objectives {
			if !(o.FastBurn > 0) || math.IsInf(o.FastBurn, 0) {
				t.Fatalf("%q: fully bad window burns at %v", spec, o.FastBurn)
			}
		}
	})
}

// TestBurnRateMath: 10% errors against a 1% budget burns at 10 in both
// windows once sustained — alert fires; after recovery the fast window cools
// first and the alert clears even while the slow window still burns.
func TestBurnRateMath(t *testing.T) {
	objs, _ := ParseObjectives("errors@99")
	s, c := newTestSLO(SLOConfig{
		Objectives: objs, FastWindow: time.Minute, SlowWindow: 4 * time.Minute, BurnThreshold: 2,
	})
	// 4 minutes of sustained 10% errors.
	for m := 0; m < 16; m++ { // 16 ticks of 15s
		for i := 0; i < 100; i++ {
			s.Record(0.001, i < 10)
		}
		c.step(15 * time.Second)
	}
	rep := s.Snapshot()
	o := rep.Objectives[0]
	if o.FastBurn < 9.9 || o.FastBurn > 10.1 || o.SlowBurn < 9.9 || o.SlowBurn > 10.1 {
		t.Fatalf("burns = %v %v, want ~10", o.FastBurn, o.SlowBurn)
	}
	if !o.Alerting || !rep.Alerting {
		t.Fatalf("sustained burn must alert: %+v", o)
	}
	// Recovery: 1 minute of clean traffic clears the fast window.
	for m := 0; m < 4; m++ {
		for i := 0; i < 100; i++ {
			s.Record(0.001, false)
		}
		c.step(15 * time.Second)
	}
	o = s.Snapshot().Objectives[0]
	if o.FastBurn != 0 {
		t.Fatalf("fast burn after recovery = %v, want 0", o.FastBurn)
	}
	if o.SlowBurn <= 2 {
		t.Fatalf("slow burn should still be hot, got %v", o.SlowBurn)
	}
	if o.Alerting {
		t.Fatal("alert must clear when the fast window cools")
	}
}

// TestAlertNeedsBothWindows: a brief blip heats the fast window only — the
// slow window dilutes it below threshold, so no alert. A 10% error budget
// keeps a 1-minute full-error blip at slow burn 1.0 (1/10 of the window bad
// against a 0.1 budget).
func TestAlertNeedsBothWindows(t *testing.T) {
	objs, _ := ParseObjectives("errors@90")
	s, c := newTestSLO(SLOConfig{
		Objectives: objs, FastWindow: time.Minute, SlowWindow: 10 * time.Minute, BurnThreshold: 2,
	})
	// 9 minutes clean, then a 1-minute 100%-error blip.
	for m := 0; m < 36; m++ {
		for i := 0; i < 100; i++ {
			s.Record(0.001, false)
		}
		c.step(15 * time.Second)
	}
	for m := 0; m < 4; m++ {
		for i := 0; i < 100; i++ {
			s.Record(0.001, true)
		}
		c.step(15 * time.Second)
	}
	o := s.Snapshot().Objectives[0]
	if o.FastBurn <= 2 {
		t.Fatalf("fast window should be burning, got %v", o.FastBurn)
	}
	if o.SlowBurn > 2 {
		t.Fatalf("slow window should still be diluted, got %v", o.SlowBurn)
	}
	if o.Alerting {
		t.Fatal("single-window burn must not alert")
	}
}

// TestLatencyObjective: requests over the bound count against the budget
// even when they succeed.
func TestLatencyObjective(t *testing.T) {
	objs, _ := ParseObjectives("latency<=10ms@90")
	s, c := newTestSLO(SLOConfig{
		Objectives: objs, FastWindow: time.Minute, SlowWindow: 2 * time.Minute, BurnThreshold: 2,
	})
	for m := 0; m < 8; m++ {
		for i := 0; i < 100; i++ {
			lat := 0.001
			if i < 50 {
				lat = 0.1 // 50% over the 10ms bound
			}
			s.Record(lat, false)
		}
		c.step(15 * time.Second)
	}
	o := s.Snapshot().Objectives[0]
	// 50% bad against a 10% budget: burn 5.
	if o.FastBurn < 4.9 || o.FastBurn > 5.1 {
		t.Fatalf("fast burn = %v, want ~5", o.FastBurn)
	}
	if !o.Alerting {
		t.Fatal("sustained latency violation must alert")
	}
}

// TestSlotExpiry: outcomes older than the slow window rotate out entirely.
func TestSlotExpiry(t *testing.T) {
	objs, _ := ParseObjectives("errors@99")
	s, c := newTestSLO(SLOConfig{
		Objectives: objs, FastWindow: time.Minute, SlowWindow: 2 * time.Minute, BurnThreshold: 2,
	})
	for i := 0; i < 100; i++ {
		s.Record(0.001, true)
	}
	c.step(10 * time.Minute) // far past the slow window
	o := s.Snapshot().Objectives[0]
	if o.SlowTotal != 0 || o.SlowBurn != 0 {
		t.Fatalf("stale outcomes survived rotation: %+v", o)
	}
}

func TestSLONil(t *testing.T) {
	var s *SLO
	s.Record(0.01, false)
	if rep := s.Snapshot(); rep.Alerting || len(rep.Objectives) != 0 {
		t.Fatalf("nil SLO report = %+v", rep)
	}
	var b strings.Builder
	s.WriteProm(&b)
	if b.Len() != 0 {
		t.Fatal("nil SLO wrote prom text")
	}
	if NewSLO(SLOConfig{}) != nil {
		t.Fatal("empty objective list must yield nil engine")
	}
}

func TestSLOWriteProm(t *testing.T) {
	objs, _ := ParseObjectives("errors@99")
	s, _ := newTestSLO(SLOConfig{Objectives: objs, FastWindow: time.Minute})
	s.Record(0.001, true)
	var b strings.Builder
	s.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		`sgd_slo_burn_rate{objective="errors@99",window="fast"}`,
		`sgd_slo_alerting{objective="errors@99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}
