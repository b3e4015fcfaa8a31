package obs

import "sync"

// Dist summarises the samples of one distribution metric within an epoch.
type Dist struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// observe folds one sample into the distribution.
func (d *Dist) observe(v float64) {
	if d.Count == 0 || v < d.Min {
		d.Min = v
	}
	if d.Count == 0 || v > d.Max {
		d.Max = v
	}
	d.Count++
	d.Sum += v
}

// merge folds another distribution into d.
func (d *Dist) merge(o Dist) {
	if o.Count == 0 {
		return
	}
	if d.Count == 0 || o.Min < d.Min {
		d.Min = o.Min
	}
	if d.Count == 0 || o.Max > d.Max {
		d.Max = o.Max
	}
	d.Count += o.Count
	d.Sum += o.Sum
}

// Mean returns the sample mean (0 for an empty distribution).
func (d Dist) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// Event is the JSONL trace schema: one object per (engine, dataset, epoch).
// Seconds is the engine's reported modeled epoch time; the phase map holds
// seconds per phase (gradient+update+barrier sum to Seconds, loss_eval is
// excluded); counters and observations carry the epoch's typed counters and
// sampled distributions. Maps omit empty sections to keep traces compact.
type Event struct {
	Engine       string             `json:"engine"`
	Dataset      string             `json:"dataset"`
	Epoch        int                `json:"epoch"`
	Seconds      float64            `json:"seconds"`
	Phases       map[string]float64 `json:"phases,omitempty"`
	Counters     map[string]int64   `json:"counters,omitempty"`
	Observations map[string]Dist    `json:"observations,omitempty"`
}

// TraceWriter is the epoch trace: a JSONL stream of Events. Create one with
// CreateJSONL[Event] or NewJSONLWriter[Event]; ReadJSONL[Event] reads it back.
type TraceWriter = JSONLWriter[Event]

// TraceRun returns a Recorder scoped to one (engine, dataset) drive whose
// epochs stream to t, numbered from 0 in EndEpoch order (Nop for a nil t).
func TraceRun(t *TraceWriter, engine, dataset string) Recorder {
	if t == nil {
		return Nop{}
	}
	return &runRecorder{sink: t.Write, engine: engine, dataset: dataset}
}

// runRecorder accumulates one epoch of one run and hands finished events to
// a sink. All methods lock: recording is coarse (a handful of calls per
// epoch), so contention is negligible.
type runRecorder struct {
	sink    func(*Event)
	engine  string
	dataset string

	mu     sync.Mutex
	epoch  int
	dirty  bool
	phases [numPhases]float64
	counts [numCounters]int64
	obs    [numMetrics]Dist
}

// Phase implements Recorder.
func (r *runRecorder) Phase(p Phase, seconds float64) {
	if p >= numPhases {
		return
	}
	r.mu.Lock()
	r.phases[p] += seconds
	r.dirty = true
	r.mu.Unlock()
}

// Add implements Recorder.
func (r *runRecorder) Add(c Counter, delta int64) {
	if c >= numCounters {
		return
	}
	r.mu.Lock()
	r.counts[c] += delta
	r.dirty = true
	r.mu.Unlock()
}

// Observe implements Recorder.
func (r *runRecorder) Observe(m Metric, v float64) {
	if m >= numMetrics {
		return
	}
	r.mu.Lock()
	r.obs[m].observe(v)
	r.dirty = true
	r.mu.Unlock()
}

// EndEpoch implements Recorder: it flushes the epoch's event to the sink and
// resets the buckets for the next epoch. Epochs with no recorded data and
// zero seconds are skipped.
func (r *runRecorder) EndEpoch(modeledSeconds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.dirty && modeledSeconds == 0 {
		return
	}
	ev := &Event{
		Engine:       r.engine,
		Dataset:      r.dataset,
		Epoch:        r.epoch,
		Seconds:      modeledSeconds,
		Phases:       nonZero(phaseNames[:], r.phases[:]),
		Counters:     nonZero(counterNames[:], r.counts[:]),
		Observations: nonZero(metricNames[:], r.obs[:]),
	}
	r.sink(ev)
	r.epoch++
	r.dirty = false
	r.phases = [numPhases]float64{}
	r.counts = [numCounters]int64{}
	r.obs = [numMetrics]Dist{}
}

// nonZero maps names[i] to vals[i] for every nonzero value (nil when all are
// zero), the sparse form traces and expvar carry.
func nonZero[V comparable](names []string, vals []V) map[string]V {
	var m map[string]V
	var zero V
	for i, v := range vals {
		if v != zero {
			if m == nil {
				m = make(map[string]V, len(vals))
			}
			m[names[i]] = v
		}
	}
	return m
}
