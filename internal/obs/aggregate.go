package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// RunStats is the aggregate of one (engine, dataset) run: epoch count, total
// modeled seconds, and totals per phase, counter and observation metric.
type RunStats struct {
	Engine  string
	Dataset string
	Epochs  int
	// Seconds is the total modeled engine time (sum of EndEpoch values).
	Seconds      float64
	PhaseSeconds [numPhases]float64
	Counters     [numCounters]int64
	Observations [numMetrics]Dist
}

// Phase returns the accumulated seconds of one phase.
func (s *RunStats) Phase(p Phase) float64 {
	if p >= numPhases {
		return 0
	}
	return s.PhaseSeconds[p]
}

// Counter returns one counter's total.
func (s *RunStats) Counter(c Counter) int64 {
	if c >= numCounters {
		return 0
	}
	return s.Counters[c]
}

// Observation returns one metric's merged distribution.
func (s *RunStats) Observation(m Metric) Dist {
	if m >= numMetrics {
		return Dist{}
	}
	return s.Observations[m]
}

// EnginePhaseSum is the modeled phase time that must reconcile with Seconds:
// every phase except the excluded loss evaluation.
func (s *RunStats) EnginePhaseSum() float64 {
	var sum float64
	for p := Phase(0); p < numPhases; p++ {
		if p != PhaseLossEval {
			sum += s.PhaseSeconds[p]
		}
	}
	return sum
}

// Aggregator keeps in-memory RunStats per (engine, dataset) and renders them
// as a Prometheus-style text snapshot or per-engine summary tables. It is
// fed either live (Run returns a scoped Recorder) or from a parsed trace
// (AddEvent).
type Aggregator struct {
	mu   sync.Mutex
	runs map[string]*RunStats
	keys []string // insertion order, for stable reports
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{runs: make(map[string]*RunStats)}
}

// Run returns a Recorder scoped to one (engine, dataset) drive that folds
// its epochs into the aggregate.
func (a *Aggregator) Run(engine, dataset string) Recorder {
	if a == nil {
		return Nop{}
	}
	return &runRecorder{
		sink:    func(ev *Event) { a.AddEvent(*ev) },
		engine:  engine,
		dataset: dataset,
	}
}

// stats returns (creating) the RunStats bucket for a key.
func (a *Aggregator) stats(engine, dataset string) *RunStats {
	key := engine + "\x00" + dataset
	s, ok := a.runs[key]
	if !ok {
		s = &RunStats{Engine: engine, Dataset: dataset}
		a.runs[key] = s
		a.keys = append(a.keys, key)
	}
	return s
}

// AddEvent folds one trace event into the aggregate. Unknown phase, counter
// or metric names (from newer trace producers) are ignored.
func (a *Aggregator) AddEvent(ev Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stats(ev.Engine, ev.Dataset)
	s.Epochs++
	s.Seconds += ev.Seconds
	for name, sec := range ev.Phases {
		if p, ok := enumIndex[Phase](phaseNames[:], name); ok {
			s.PhaseSeconds[p] += sec
		}
	}
	for name, n := range ev.Counters {
		if c, ok := enumIndex[Counter](counterNames[:], name); ok {
			s.Counters[c] += n
		}
	}
	for name, d := range ev.Observations {
		if m, ok := enumIndex[Metric](metricNames[:], name); ok {
			s.Observations[m].merge(d)
		}
	}
}

// Runs returns a copy of the aggregated runs in first-seen order.
func (a *Aggregator) Runs() []RunStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]RunStats, 0, len(a.keys))
	for _, k := range a.keys {
		out = append(out, *a.runs[k])
	}
	return out
}

// Export returns the aggregate as a plain map (engine|dataset -> stats),
// suitable for expvar publication.
func (a *Aggregator) Export() any {
	runs := a.Runs()
	out := make(map[string]map[string]any, len(runs))
	for _, r := range runs {
		e := map[string]any{
			"epochs":  r.Epochs,
			"seconds": r.Seconds,
		}
		if phases := nonZero(phaseNames[:], r.PhaseSeconds[:]); phases != nil {
			e["phases"] = phases
		}
		if counters := nonZero(counterNames[:], r.Counters[:]); counters != nil {
			e["counters"] = counters
		}
		out[r.Engine+"|"+r.Dataset] = e
	}
	return out
}

// Snapshot renders the aggregate in the Prometheus text exposition format,
// one family after another:
//
//	sgd_epochs_total{engine="...",dataset="..."} 12
//	sgd_epoch_seconds_total{engine="...",dataset="..."} 4.5
//	sgd_phase_seconds_total{engine="...",dataset="...",phase="gradient"} 1.2
//	sgd_counter_total{engine="...",dataset="...",counter="worker_updates"} 9
//	sgd_observation_sum{engine="...",dataset="...",metric="batch_seconds"} 3
//	sgd_observation_count{engine="...",dataset="...",metric="batch_seconds"} 8
func (a *Aggregator) Snapshot() string {
	runs := a.Runs()
	// Stable output: sort by engine then dataset.
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].Engine != runs[j].Engine {
			return runs[i].Engine < runs[j].Engine
		}
		return runs[i].Dataset < runs[j].Dataset
	})
	// One pass over the runs fills every family's sample block; the blocks
	// are then emitted in order, each under its one header.
	families := []struct{ name, help string }{
		{"sgd_epochs_total", "Epochs executed per engine run."},
		{"sgd_epoch_seconds_total", "Modeled engine seconds per run."},
		{"sgd_phase_seconds_total", "Seconds per engine phase (loss_eval is host wall-clock, excluded from epoch seconds)."},
		{"sgd_counter_total", "Typed engine counters (contention, conflicts, traffic)."},
		{"sgd_observation_sum", "Sum of sampled observation values."},
		{"sgd_observation_count", "Number of sampled observation values."},
	}
	blocks := make([]strings.Builder, len(families))
	for i := range runs {
		r := &runs[i]
		sample := func(f int, v any, labels ...string) {
			PromSample(&blocks[f], families[f].name, v, append([]string{"engine", r.Engine, "dataset", r.Dataset}, labels...)...)
		}
		sample(0, r.Epochs)
		sample(1, r.Seconds)
		for p := Phase(0); p < numPhases; p++ {
			if r.PhaseSeconds[p] != 0 {
				sample(2, r.PhaseSeconds[p], "phase", p.String())
			}
		}
		for c := Counter(0); c < numCounters; c++ {
			if r.Counters[c] != 0 {
				sample(3, r.Counters[c], "counter", c.String())
			}
		}
		for m := Metric(0); m < numMetrics; m++ {
			if d := r.Observations[m]; d.Count != 0 {
				sample(4, d.Sum, "metric", m.String())
				sample(5, d.Count, "metric", m.String())
			}
		}
	}
	var b strings.Builder
	for f, fam := range families {
		PromFamily(&b, fam.name, "counter", fam.help)
		b.WriteString(blocks[f].String())
	}
	return b.String()
}

// Summary renders per-engine summary tables: phase shares of the modeled
// time, counter totals and derived rates, one block per (engine, dataset)
// run in first-seen order.
func (a *Aggregator) Summary() string {
	var b strings.Builder
	for _, r := range a.Runs() {
		WriteRunSummary(&b, &r)
	}
	return b.String()
}

// WriteRunSummary renders one run block of Aggregator.Summary.
func WriteRunSummary(b *strings.Builder, r *RunStats) {
	fmt.Fprintf(b, "%s on %s: %d epochs, %.4gs modeled\n", r.Engine, r.Dataset, r.Epochs, r.Seconds)
	sum := r.EnginePhaseSum()
	if sum > 0 {
		b.WriteString("  phases:")
		for _, p := range []Phase{PhaseGradient, PhaseUpdate, PhaseBarrier} {
			if r.PhaseSeconds[p] == 0 {
				continue
			}
			fmt.Fprintf(b, " %s %.1f%% (%.4gs)", p, 100*r.PhaseSeconds[p]/sum, r.PhaseSeconds[p])
		}
		if le := r.PhaseSeconds[PhaseLossEval]; le > 0 {
			fmt.Fprintf(b, "  [loss_eval %.4gs wall, excluded]", le)
		}
		b.WriteByte('\n')
		if r.Seconds > 0 {
			fmt.Fprintf(b, "  phase-sum check: %.1f%% of reported epoch seconds\n", 100*sum/r.Seconds)
		}
	}
	var parts []string
	for c := Counter(0); c < numCounters; c++ {
		if r.Counters[c] != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c, r.Counters[c]))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(b, "  counters: %s\n", strings.Join(parts, " "))
	}
	if retries, upd := r.Counters[CounterCASRetries], r.Counters[CounterWorkerUpdates]; retries > 0 && upd > 0 {
		fmt.Fprintf(b, "  CAS retry rate: %.2f%%\n", 100*float64(retries)/float64(upd))
	}
	if emitted := r.Counters[CounterGPUUpdates]; emitted > 0 {
		lost := r.Counters[CounterGPULostIntra] + r.Counters[CounterGPULostInter]
		fmt.Fprintf(b, "  gpu lost-update rate: %.2f%% (intra %.2f%%, inter %.2f%%)\n",
			100*float64(lost)/float64(emitted),
			100*float64(r.Counters[CounterGPULostIntra])/float64(emitted),
			100*float64(r.Counters[CounterGPULostInter])/float64(emitted))
	}
	if tx := r.Counters[CounterGPUTransactions]; tx > 0 {
		if req := r.Counters[CounterGPURequests]; req > 0 {
			fmt.Fprintf(b, "  gpu coalescing: %d requests -> %d transactions (%.2fx)\n",
				r.Counters[CounterGPURequests], tx, float64(req)/float64(tx))
		}
	}
	for m := Metric(0); m < numMetrics; m++ {
		d := r.Observations[m]
		if d.Count == 0 {
			continue
		}
		fmt.Fprintf(b, "  %s: mean %.4g min %.4g max %.4g (%d samples)\n",
			m, d.Mean(), d.Min, d.Max, d.Count)
	}
}
