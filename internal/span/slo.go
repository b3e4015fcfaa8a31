package span

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// The SLO engine: named objectives (p-quantile latency bounds, error-rate
// targets) evaluated with multi-window burn rates over log-bucketed latency
// histograms — the Google-SRE alerting discipline. A burn rate of 1 means
// the service is consuming its error budget exactly at the rate that
// exhausts it at the window's end; an alert fires only when BOTH the fast
// and the slow window burn above the threshold, so a brief blip (fast
// window hot, slow window cool) stays quiet while a sustained regression
// (both hot) pages quickly.
//
// Latency samples land in obs.LatencyBuckets, the ladder the serving Stats
// histogram uses (8 buckets per decade, 1µs–10s), kept as a ring of
// per-tick slots so any trailing window is a bucket-sum away. An
// objective's latency bound therefore rounds up to the nearest bucket
// boundary (~33% granularity per step), which is exactly the resolution of
// the quantiles everything else in the repo reports.

// Objective is one service-level objective over the request stream.
type Objective struct {
	// Name identifies the objective in reports and metric labels (the spec
	// term it was parsed from, e.g. "latency<=250ms@99").
	Name string `json:"name"`
	// Target is the success-fraction target in (0, 1), e.g. 0.999; the
	// error budget is 1 - Target.
	Target float64 `json:"target"`
	// LatencyBound, when positive, is the seconds bound a successful
	// request must also meet to count as good; 0 makes this an error-rate
	// objective (good = did not error).
	LatencyBound float64 `json:"latency_bound_s,omitempty"`
}

// ParseObjectives parses a comma-separated objective spec:
//
//	latency<=250ms@99     p-latency objective: 99% of requests under 250ms
//	errors@99.9           error-rate objective: 99.9% of requests succeed
//
// The percentage after @ is the success target.
func ParseObjectives(spec string) ([]Objective, error) {
	var out []Objective
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		head, pct, ok := strings.Cut(term, "@")
		if !ok {
			return nil, fmt.Errorf("span: objective %q: missing @target", term)
		}
		target, err := strconv.ParseFloat(strings.TrimSpace(pct), 64)
		if err != nil {
			return nil, fmt.Errorf("span: objective %q: bad target: %v", term, err)
		}
		// Checked on the fraction, so NaN, ±Inf and an underflow to 0 fail
		// too.
		frac := target / 100
		if !(frac > 0 && frac < 1) {
			return nil, fmt.Errorf("span: objective %q: target %v%% outside (0, 100)", term, target)
		}
		o := Objective{Name: term, Target: frac}
		switch {
		case head == "errors":
		case strings.HasPrefix(head, "latency<="):
			d, err := time.ParseDuration(strings.TrimPrefix(head, "latency<="))
			if err != nil {
				return nil, fmt.Errorf("span: objective %q: bad latency bound: %v", term, err)
			}
			if d <= 0 {
				return nil, fmt.Errorf("span: objective %q: nonpositive latency bound", term)
			}
			o.LatencyBound = d.Seconds()
		default:
			return nil, fmt.Errorf("span: objective %q: want latency<=DUR@PCT or errors@PCT", term)
		}
		out = append(out, o)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("span: empty objective spec")
	}
	return out, nil
}

// SLOConfig sizes the engine. Zero-valued windows default to the
// operational 1m fast / 10m slow pair; smoke tests shrink them to fit a
// seconds-long run.
type SLOConfig struct {
	Objectives []Objective
	// FastWindow and SlowWindow are the two burn-rate windows; an alert
	// requires both to burn above BurnThreshold.
	FastWindow time.Duration
	SlowWindow time.Duration
	// BurnThreshold is the burn-rate alert level (default 2: consuming the
	// budget twice as fast as sustainable).
	BurnThreshold float64
}

// sloSlot is one tick of request outcomes: total requests, errored
// requests, and the latency bucket counts of the non-errored ones.
type sloSlot struct {
	total   int64
	errs    int64
	buckets []int64
}

// SLO evaluates objectives over a ring of per-tick outcome slots. All
// methods are nil-receiver safe and guarded by one mutex — recording
// happens once per request completion (the dispatcher, plus rejection
// paths), far from any per-element hot loop.
type SLO struct {
	cfg   SLOConfig
	tick  time.Duration
	slots []sloSlot
	// boundIdx[i] is the bucket index objectives[i].LatencyBound rounds up
	// to (-1 for error-only objectives).
	boundIdx []int

	mu    sync.Mutex
	start time.Time
	cur   int64 // last advanced absolute slot number
	now   func() time.Time
}

// NewSLO builds the engine; returns nil (a valid no-op engine) for an
// empty objective list.
func NewSLO(cfg SLOConfig) *SLO {
	if len(cfg.Objectives) == 0 {
		return nil
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = time.Minute
	}
	if cfg.SlowWindow < cfg.FastWindow {
		cfg.SlowWindow = 10 * cfg.FastWindow
	}
	if cfg.BurnThreshold <= 0 {
		cfg.BurnThreshold = 2
	}
	// The tick quarters the fast window so its burn rate is computed from
	// at least 4 slots; the ring covers the slow window plus one live slot.
	tick := cfg.FastWindow / 4
	n := int(cfg.SlowWindow/tick) + 1
	s := &SLO{
		cfg:   cfg,
		tick:  tick,
		slots: make([]sloSlot, n),
		now:   time.Now,
	}
	for i := range s.slots {
		s.slots[i].buckets = make([]int64, len(obs.LatencyBuckets)+1)
	}
	for _, o := range cfg.Objectives {
		idx := -1
		if o.LatencyBound > 0 {
			idx = obs.BucketIndex(obs.LatencyBuckets, o.LatencyBound)
		}
		s.boundIdx = append(s.boundIdx, idx)
	}
	s.start = s.now()
	return s
}

// advance rotates the ring to the slot containing t, zeroing skipped slots.
// Callers hold mu.
func (s *SLO) advance(t time.Time) {
	slot := int64(t.Sub(s.start) / s.tick)
	if slot <= s.cur {
		return
	}
	// Clear every slot between the last write and now (bounded by the ring
	// size: beyond that everything is stale anyway).
	from := s.cur + 1
	if slot-from >= int64(len(s.slots)) {
		from = slot - int64(len(s.slots)) + 1
	}
	for i := from; i <= slot; i++ {
		sl := &s.slots[i%int64(len(s.slots))]
		sl.total, sl.errs = 0, 0
		for j := range sl.buckets {
			sl.buckets[j] = 0
		}
	}
	s.cur = slot
}

// Record folds one request outcome into the current slot: its latency in
// seconds and whether it failed (admission rejections and injected drops
// count as errors; client-side bad requests should not be recorded).
func (s *SLO) Record(latency float64, isErr bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.advance(s.now())
	sl := &s.slots[s.cur%int64(len(s.slots))]
	sl.total++
	if isErr {
		sl.errs++
	} else {
		sl.buckets[obs.BucketIndex(obs.LatencyBuckets, latency)]++
	}
	s.mu.Unlock()
}

// window sums the trailing k slots for one objective: total requests and
// bad requests (errored, or over the latency bound). Callers hold mu.
func (s *SLO) window(k int, boundIdx int) (total, bad int64) {
	if k > len(s.slots) {
		k = len(s.slots)
	}
	for i := int64(0); i < int64(k); i++ {
		slot := s.cur - i
		if slot < 0 {
			break
		}
		sl := &s.slots[slot%int64(len(s.slots))]
		total += sl.total
		bad += sl.errs
		if boundIdx >= 0 {
			for j := boundIdx + 1; j < len(sl.buckets); j++ {
				bad += sl.buckets[j]
			}
		}
	}
	return total, bad
}

// ObjectiveReport is one objective's current evaluation.
type ObjectiveReport struct {
	Objective
	// FastBurn and SlowBurn are the burn rates of the two windows:
	// (bad fraction) / (error budget); 0 when the window is empty.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// FastBad/FastTotal and SlowBad/SlowTotal are the raw window tallies
	// behind the rates.
	FastBad   int64 `json:"fast_bad"`
	FastTotal int64 `json:"fast_total"`
	SlowBad   int64 `json:"slow_bad"`
	SlowTotal int64 `json:"slow_total"`
	// Alerting is the multi-window verdict: both windows burning above the
	// threshold.
	Alerting bool `json:"alerting"`
}

// Report is the /slo payload.
type Report struct {
	FastWindowS   float64           `json:"fast_window_s"`
	SlowWindowS   float64           `json:"slow_window_s"`
	BurnThreshold float64           `json:"burn_threshold"`
	Alerting      bool              `json:"alerting"`
	Objectives    []ObjectiveReport `json:"objectives"`
}

// Snapshot evaluates every objective now.
func (s *SLO) Snapshot() Report {
	if s == nil {
		return Report{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(s.now())
	fastK := int(s.cfg.FastWindow / s.tick)
	slowK := int(s.cfg.SlowWindow / s.tick)
	rep := Report{
		FastWindowS:   s.cfg.FastWindow.Seconds(),
		SlowWindowS:   s.cfg.SlowWindow.Seconds(),
		BurnThreshold: s.cfg.BurnThreshold,
	}
	for i, o := range s.cfg.Objectives {
		or := ObjectiveReport{Objective: o}
		budget := 1 - o.Target
		or.FastTotal, or.FastBad = s.window(fastK, s.boundIdx[i])
		or.SlowTotal, or.SlowBad = s.window(slowK, s.boundIdx[i])
		if or.FastTotal > 0 && budget > 0 {
			or.FastBurn = float64(or.FastBad) / float64(or.FastTotal) / budget
		}
		if or.SlowTotal > 0 && budget > 0 {
			or.SlowBurn = float64(or.SlowBad) / float64(or.SlowTotal) / budget
		}
		or.Alerting = or.FastBurn > s.cfg.BurnThreshold && or.SlowBurn > s.cfg.BurnThreshold
		rep.Alerting = rep.Alerting || or.Alerting
		rep.Objectives = append(rep.Objectives, or)
	}
	return rep
}

// WriteProm renders the evaluation as Prometheus text under sgd_slo_.
func (s *SLO) WriteProm(w io.Writer) {
	if s == nil {
		return
	}
	rep := s.Snapshot()
	obs.PromFamily(w, "sgd_slo_burn_rate", "gauge", "Error-budget burn rate per objective and window.")
	for _, o := range rep.Objectives {
		obs.PromSample(w, "sgd_slo_burn_rate", o.FastBurn, "objective", o.Name, "window", "fast")
		obs.PromSample(w, "sgd_slo_burn_rate", o.SlowBurn, "objective", o.Name, "window", "slow")
	}
	obs.PromFamily(w, "sgd_slo_alerting", "gauge", "Multi-window burn alert state per objective (1 = firing).")
	for _, o := range rep.Objectives {
		v := 0
		if o.Alerting {
			v = 1
		}
		obs.PromSample(w, "sgd_slo_alerting", v, "objective", o.Name)
	}
}
