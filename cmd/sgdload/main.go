// Command sgdload drives load at an sgdserve instance (or an in-process
// serving core) and writes a JSON latency/throughput report.
//
// Usage:
//
//	sgdload -target http://localhost:8080 [-conc 8 | -rate 500] \
//	        [-duration 5s] [-dataset covtype] [-maxn 2000] [-out report.json] [-check]
//	sgdload -inproc [-duration 2s] [-conc 64] [-workers 0] [-max-batch 64] \
//	        [-out report.json] [-check] [-min-speedup 2]
//	sgdload -quant-ab [-duration 2s] [-conc 64] [-workers 0] [-max-batch 64] \
//	        [-out report.json] [-check] [-expect-speedup 0.8]
//
// Four modes:
//
//   - Closed loop (-conc N): N clients each keep exactly one request in
//     flight; throughput is whatever the server sustains.
//   - Open loop (-rate R): requests fire at R/s regardless of completions,
//     exposing queueing collapse the closed loop hides.
//   - In-process A/B (-inproc): trains a small covtype LR, then drives the
//     serving core directly (no HTTP framing) at the same pool worker count
//     — micro-batching enabled vs MaxBatch=1 — and reports the
//     batched/unbatched throughput ratio. This is the repo's measured
//     evidence for the serving half of the paper's batching tradeoff; `make
//     serve-smoke` gates on speedup >= 2.
//   - Quantised A/B (-quant-ab): the same in-process harness, but the two
//     phases differ only in Config.Quantized — float64 scoring vs the int8
//     path of DESIGN §14 — at equal batch and worker settings. The report
//     adds a serial accuracy probe over the whole dataset: max/mean
//     |quant − float| score delta, analytic bound violations, and an FNV-1a
//     checksum of the delta stream (same snapshot + dataset => same
//     checksum, so quantiser drift is visible even inside the limits).
//     -expect-speedup gates the quantised/float throughput ratio; serving
//     requests are dispatch-dominated, so CI asserts "no throughput cost"
//     (~1x) here; the kernels themselves are timed by the system benchmark
//     (linalg.float_score_ms / linalg.int8_score_ms in benchmark/).
//
// Both in-process A/Bs split -duration per side into three windows run in
// alternating pairs (A B, B A, A B), so drift in host speed lands on both
// sides alike; the report lists every window under runs, in run order, and
// the gated ratio is the median of the three per-pair ratios.
//
// The report embeds the server's /healthz payload (in-process: the
// snapshot's own identity), so the core.Fingerprint discipline applies:
// reports are only comparable when the fingerprints match. -check makes
// sanity assertions (every request accounted for, nonzero throughput,
// ordered quantiles) and -min-speedup gates the A/B ratio; failures exit 1.
// Exit status: 0 ok, 1 load or check failure, 2 usage error.
//
// HTTP requests carry unique client-minted X-Trace-Id headers, so a server
// running with -spans exports span trees stitched to this load run, and the
// report embeds the server's /slo burn-rate evaluation after the run.
// -expect-alert fire|quiet turns that into an assertion — the span-smoke CI
// job drives a storm-faulted server expecting fire and a clean one expecting
// quiet.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/span"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runReport is one measured load phase.
type runReport struct {
	Mode          string  `json:"mode"` // closed|open|inproc-batched|inproc-unbatched
	DurationS     float64 `json:"duration_s"`
	Sent          int64   `json:"sent"`
	OK            int64   `json:"ok"`
	Rejected      int64   `json:"rejected"` // HTTP 429 / ErrOverloaded
	Errors        int64   `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Traced        int64   `json:"traced,omitempty"` // responses that echoed our X-Trace-Id
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP90Ms  float64 `json:"latency_p90_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyMaxMs  float64 `json:"latency_max_ms"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`
	AvgBatch      float64 `json:"avg_batch,omitempty"` // in-process only
}

// quantABReport is the quantised-vs-float serving comparison (-quant-ab):
// two full serving phases differing only in Config.Quantized, plus a serial
// accuracy probe over the whole dataset under the served snapshot.
type quantABReport struct {
	// Speedup is quantised/float served throughput at equal worker count
	// (the median over the paired windows).
	// At serving dimensions a request is dispatch-dominated, so this hovers
	// near 1; the CI assertion (-expect-speedup) gates "quantisation does
	// not cost serving throughput". The kernel-level ratio is measured
	// where it lives, by benchmark/'s linalg.*_score_ms probes.
	Speedup float64 `json:"speedup"`
	// MaxAbsDelta / MeanAbsDelta are |quant − float| score deltas over the
	// probe; BoundViolations counts rows exceeding the analytic envelope.
	MaxAbsDelta     float64 `json:"max_abs_delta"`
	MeanAbsDelta    float64 `json:"mean_abs_delta"`
	BoundViolations int     `json:"bound_violations"`
	// DeltaChecksum is FNV-1a over the probe's delta bit patterns — two
	// runs on the same snapshot and dataset must produce the same value,
	// so a drifting quantiser shows up as a checksum change even when the
	// summary stats stay inside their limits.
	DeltaChecksum string `json:"delta_checksum"`
	ProbeRows     int    `json:"probe_rows"`
}

// report is the JSON document sgdload writes.
type report struct {
	Target    string         `json:"target,omitempty"`
	Server    *serve.Health  `json:"server,omitempty"` // /healthz at run start
	Runs      []runReport    `json:"runs"`
	Speedup   float64        `json:"batched_speedup,omitempty"`
	Quant     *quantABReport `json:"quant_ab,omitempty"`
	SLO       *span.Report   `json:"slo,omitempty"` // /slo after the run (HTTP mode)
	CheckedOK bool           `json:"checked_ok,omitempty"`

	pairRatios []float64 // an in-process A/B's per-pair ratios, in run order
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sgdload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target     = fs.String("target", "http://localhost:8080", "sgdserve base URL")
		conc       = fs.Int("conc", 8, "closed-loop concurrent clients (also the in-process caller count)")
		rate       = fs.Float64("rate", 0, "open-loop request rate per second (0 = closed loop)")
		duration   = fs.Duration("duration", 5*time.Second, "measurement length per run")
		dataset    = fs.String("dataset", "covtype", "dataset whose rows become request payloads")
		maxN       = fs.Int("maxn", 2000, "examples generated for payloads (and in-process training)")
		seed       = fs.Int64("seed", 1, "payload sampling (and in-process training) seed")
		inproc     = fs.Bool("inproc", false, "run the in-process batched vs unbatched A/B instead of HTTP load")
		quantAB    = fs.Bool("quant-ab", false, "run the in-process quantised vs float serving A/B instead of HTTP load")
		workers    = fs.Int("workers", 0, "in-process pool workers per dispatch, equal in both phases (0 = pool size)")
		maxBatch   = fs.Int("max-batch", 64, "in-process batched phase's micro-batch bound")
		pretrain   = fs.Int("pretrain", 3, "in-process Hogwild epochs before measuring")
		outPath    = fs.String("out", "-", "write the JSON report here (- = stdout)")
		check      = fs.Bool("check", false, "assert report sanity; exit 1 on violation")
		minSpeedup = fs.Float64("min-speedup", 0, "with -check and -inproc: minimum batched/unbatched throughput ratio")
		expSpeedup = fs.Float64("expect-speedup", 0, "with -check and -quant-ab: minimum quantised/float throughput ratio")
		expAlert   = fs.String("expect-alert", "", "assert the server's /slo state after the run: fire|quiet (exit 1 on mismatch)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *expAlert != "" && *expAlert != "fire" && *expAlert != "quiet" {
		fmt.Fprintf(stderr, "sgdload: -expect-alert %q: want fire or quiet\n", *expAlert)
		return 2
	}
	if *expAlert != "" && (*inproc || *quantAB) {
		fmt.Fprintln(stderr, "sgdload: -expect-alert needs an HTTP target (/slo lives on the server)")
		return 2
	}
	if *inproc && *quantAB {
		fmt.Fprintln(stderr, "sgdload: -inproc and -quant-ab are separate A/Bs; pick one")
		return 2
	}

	spec, err := data.Lookup(*dataset)
	if err != nil {
		fmt.Fprintf(stderr, "sgdload: %v\n", err)
		return 2
	}
	if *maxN > 0 && *maxN < spec.N {
		spec = spec.Scaled(float64(*maxN) / float64(spec.N))
	}
	ds := data.Generate(spec)

	var rep report
	switch {
	case *inproc:
		rep = runInproc(ds, *conc, *workers, *maxBatch, *pretrain, *duration, *seed)
	case *quantAB:
		rep = runQuantAB(ds, *conc, *workers, *maxBatch, *pretrain, *duration, *seed)
	default:
		rep, err = runHTTP(ds, *target, *conc, *rate, *duration, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "sgdload: %v\n", err)
			return 1
		}
	}

	if len(rep.pairRatios) > 0 {
		fmt.Fprintf(stderr, "sgdload: per-pair ratios %.2f (the median is gated)\n", rep.pairRatios)
	}
	if *check {
		if err := checkReport(&rep, *inproc || *quantAB, *minSpeedup, *expSpeedup); err != nil {
			fmt.Fprintf(stderr, "sgdload: check failed: %v\n", err)
			emit(stderr, &rep, "-")
			return 1
		}
		rep.CheckedOK = true
	}
	for _, r := range rep.Runs {
		fmt.Fprintf(stderr, "sgdload: %-16s %8.0f req/s  p50 %6.3fms  p99 %6.3fms  (%d ok, %d rejected, %d errors)\n",
			r.Mode, r.ThroughputRPS, r.LatencyP50Ms, r.LatencyP99Ms, r.OK, r.Rejected, r.Errors)
		if r.Traced > 0 {
			fmt.Fprintf(stderr, "sgdload: %-16s %d responses carried our trace IDs (server spans stitch to this run)\n",
				r.Mode, r.Traced)
		}
	}
	if rep.Speedup > 0 {
		fmt.Fprintf(stderr, "sgdload: batched/unbatched speedup %.2fx at equal worker count\n", rep.Speedup)
	}
	if rep.Quant != nil {
		fmt.Fprintf(stderr, "sgdload: quantised/float speedup %.2fx, max score delta %.3g over %d rows (%d bound violations, checksum %s)\n",
			rep.Quant.Speedup, rep.Quant.MaxAbsDelta, rep.Quant.ProbeRows,
			rep.Quant.BoundViolations, rep.Quant.DeltaChecksum)
	}
	if rep.SLO != nil {
		for _, o := range rep.SLO.Objectives {
			fmt.Fprintf(stderr, "sgdload: slo %-24s burn %.2f fast / %.2f slow (threshold %.1f, alerting=%v)\n",
				o.Name, o.FastBurn, o.SlowBurn, rep.SLO.BurnThreshold, o.Alerting)
		}
	}
	if *expAlert != "" {
		alerting := rep.SLO != nil && rep.SLO.Alerting
		if want := *expAlert == "fire"; alerting != want {
			fmt.Fprintf(stderr, "sgdload: expected SLO alert state %q, server is alerting=%v\n", *expAlert, alerting)
			emit(stderr, &rep, "-")
			return 1
		}
	}
	if err := emit(stdout, &rep, *outPath); err != nil {
		fmt.Fprintf(stderr, "sgdload: %v\n", err)
		return 1
	}
	return 0
}

// emit writes the report JSON to path ("-" = w).
func emit(w io.Writer, rep *report, path string) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" || path == "" {
		_, err = w.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// quantiles fills a runReport's latency fields from raw seconds samples.
func (r *runReport) quantiles(lat []float64) {
	if len(lat) == 0 {
		return
	}
	sort.Float64s(lat)
	at := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return lat[i] * 1e3
	}
	r.LatencyP50Ms = at(0.50)
	r.LatencyP90Ms = at(0.90)
	r.LatencyP99Ms = at(0.99)
	r.LatencyMaxMs = lat[len(lat)-1] * 1e3
	var sum float64
	for _, v := range lat {
		sum += v
	}
	r.LatencyMeanMs = sum / float64(len(lat)) * 1e3
}

// payloads pre-renders dataset rows as /predict JSON bodies.
func payloads(ds *data.Dataset, n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		cols, vals := ds.X.Row(rng.Intn(ds.N()))
		body, _ := json.Marshal(map[string]any{"indices": cols, "values": vals})
		out[i] = body
	}
	return out
}

// runHTTP measures one closed- or open-loop run against a live sgdserve.
func runHTTP(ds *data.Dataset, target string, conc int, rate float64, dur time.Duration, seed int64) (report, error) {
	target = strings.TrimSuffix(target, "/")
	health, err := fetchHealth(target)
	if err != nil {
		return report{}, err
	}
	bodies := payloads(ds, 256, seed)
	client := &http.Client{Timeout: 30 * time.Second}

	var (
		sent, ok, rejected, errs atomic.Int64
		traced, nextID           atomic.Int64
		mu                       sync.Mutex
		lat                      []float64
	)
	shoot := func(body []byte) {
		// Every request carries a unique client-minted trace ID, so server-
		// side span trees (sgdserve -spans) stitch back to this load run.
		id := span.ID(uint64(seed)<<32 + uint64(nextID.Add(1))).String()
		req, err := http.NewRequest(http.MethodPost, target+"/predict", bytes.NewReader(body))
		if err != nil {
			errs.Add(1)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Trace-Id", id)
		start := time.Now()
		resp, err := client.Do(req)
		el := time.Since(start).Seconds()
		if err != nil {
			errs.Add(1)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get("X-Trace-Id") == id {
			traced.Add(1)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			ok.Add(1)
			mu.Lock()
			lat = append(lat, el)
			mu.Unlock()
		case resp.StatusCode == http.StatusTooManyRequests:
			rejected.Add(1)
		default:
			errs.Add(1)
		}
	}

	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	mode := "closed"
	if rate > 0 {
		mode = "open"
		tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer tick.Stop()
		i := 0
		for now := range tick.C {
			if now.After(deadline) {
				break
			}
			sent.Add(1)
			wg.Add(1)
			go func(b []byte) { defer wg.Done(); shoot(b) }(bodies[i%len(bodies)])
			i++
		}
	} else {
		for c := 0; c < conc; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; time.Now().Before(deadline); i++ {
					sent.Add(1)
					shoot(bodies[i%len(bodies)])
				}
			}(c)
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rr := runReport{
		Mode: mode, DurationS: elapsed,
		Sent: sent.Load(), OK: ok.Load(), Rejected: rejected.Load(), Errors: errs.Load(),
		Traced:        traced.Load(),
		ThroughputRPS: float64(ok.Load()) / elapsed,
	}
	rr.quantiles(lat)
	rep := report{Target: target, Server: health, Runs: []runReport{rr}}
	rep.SLO = fetchSLO(target)
	return rep, nil
}

// fetchSLO embeds the server's burn-rate evaluation in the report. Best
// effort: a server without the /slo endpoint just leaves the field empty
// (-expect-alert then treats it as not alerting).
func fetchSLO(target string) *span.Report {
	resp, err := http.Get(target + "/slo")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var rep span.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil
	}
	return &rep
}

// fetchHealth embeds the server identity in the report.
func fetchHealth(target string) (*serve.Health, error) {
	resp, err := http.Get(target + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("fetch %s/healthz: %w", target, err)
	}
	defer resp.Body.Close()
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("parse /healthz: %w", err)
	}
	if h.Status != "ok" {
		return nil, fmt.Errorf("server not ready: status %q", h.Status)
	}
	return &h, nil
}

// trainedServeStore trains a small LR and publishes its snapshot — the
// shared setup of both in-process A/Bs.
func trainedServeStore(ds *data.Dataset, pretrain int, seed int64) (*model.LR, []float64, *serve.Store) {
	m := model.NewLR(ds.D())
	w := m.InitParams(seed)
	eng := core.NewHogwild(m, ds, 0.05, 4)
	core.Seed(eng, seed)
	for e := 0; e < pretrain; e++ {
		eng.RunEpoch(w)
	}
	store := serve.NewStore()
	store.PublishWeights(w, serve.Snapshot{
		Model: m.Name(), Dim: ds.D(),
		Epoch: pretrain, Loss: model.MeanLoss(m, w, ds),
		Fingerprint: core.Fingerprint{
			Engine: eng.Name(), Model: m.Name(), Dataset: ds.Name,
			N: ds.N(), Threads: 4, Seed: seed,
		},
	})
	return m, w, store
}

// measureServe drives one serving core configuration with conc closed-loop
// callers for dur. Every phase runs the full production stack — including
// the per-batch obs instrumentation sgdserve always has on — so phases of
// an A/B differ only in the Config fields the caller varies.
func measureServe(m model.Scorer, store *serve.Store, ds *data.Dataset, mode string, cfg serve.Config, conc int, dur time.Duration, seed int64) runReport {
	agg := obs.NewAggregator()
	cfg.Rec = agg.Run(mode, ds.Name)
	c := serve.NewCore(m, store, cfg)
	defer c.Close()
	var (
		ok, rejected, errs atomic.Int64
		mu                 sync.Mutex
		lat                []float64
	)
	deadline := time.Now().Add(dur)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < conc; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(k)))
			var myLat []float64
			for time.Now().Before(deadline) {
				cols, vals := ds.X.Row(rng.Intn(ds.N()))
				t0 := time.Now()
				_, err := c.Predict(cols, vals)
				switch err {
				case nil:
					ok.Add(1)
					myLat = append(myLat, time.Since(t0).Seconds())
				case serve.ErrOverloaded:
					rejected.Add(1)
				default:
					errs.Add(1)
				}
			}
			mu.Lock()
			lat = append(lat, myLat...)
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	rr := runReport{
		Mode: mode, DurationS: elapsed,
		Sent: ok.Load() + rejected.Load() + errs.Load(),
		OK:   ok.Load(), Rejected: rejected.Load(), Errors: errs.Load(),
		ThroughputRPS: float64(ok.Load()) / elapsed,
		AvgBatch:      c.Stats().Snapshot().AvgBatch,
	}
	rr.quantiles(lat)
	return rr
}

// inprocHealth renders the served snapshot's identity the way /healthz would.
func inprocHealth(store *serve.Store, maxBatch, workers int, quantized bool) *serve.Health {
	sn := store.Load()
	return &serve.Health{
		Status: "ok", Model: sn.Model, ModelVersion: sn.Version,
		Epoch: sn.Epoch, Loss: sn.Loss,
		Fingerprint: sn.Fingerprint.String(), FingerprintKey: sn.Fingerprint.Key(),
		MaxBatch: maxBatch, Workers: workers, Quantized: quantized,
	}
}

// abPairs is the number of window pairs an in-process A/B runs.
const abPairs = 3

// pairedAB runs an A/B as abPairs pairs of windows, alternating which side
// goes first (base treat, treat base, base treat) so that drift in host
// speed lands on both sides alike; measure(treat) times one window of a
// side. It returns every window in run order, each pair's treat/base
// throughput ratio, and their median — the ratio the A/B gates on.
func pairedAB(measure func(treat bool) runReport) (runs []runReport, ratios []float64, median float64) {
	for p := 0; p < abPairs; p++ {
		treatFirst := p%2 == 1
		first, second := measure(treatFirst), measure(!treatFirst)
		runs = append(runs, first, second)
		base, treat := first, second
		if treatFirst {
			base, treat = second, first
		}
		ratio := 0.0 // base served nothing: checkReport fails its window
		if base.ThroughputRPS > 0 {
			ratio = treat.ThroughputRPS / base.ThroughputRPS
		}
		ratios = append(ratios, ratio)
	}
	sorted := append([]float64(nil), ratios...)
	sort.Float64s(sorted)
	return runs, ratios, sorted[abPairs/2]
}

// runInproc trains a covtype-style LR and measures the same serving core
// config unbatched (MaxBatch=1) and batched, at equal pool worker count.
func runInproc(ds *data.Dataset, conc, workers, maxBatch, pretrain int, dur time.Duration, seed int64) report {
	m, _, store := trainedServeStore(ds, pretrain, seed)
	cfg := func(batch int) serve.Config {
		return serve.Config{
			MaxBatch: batch, MaxDelay: 2 * time.Millisecond,
			QueueDepth: 8 * conc, Workers: workers,
		}
	}
	var rep report
	rep.Runs, rep.pairRatios, rep.Speedup = pairedAB(func(batched bool) runReport {
		if batched {
			return measureServe(m, store, ds, "inproc-batched", cfg(maxBatch), conc, dur/abPairs, seed)
		}
		return measureServe(m, store, ds, "inproc-unbatched", cfg(1), conc, dur/abPairs, seed)
	})
	rep.Server = inprocHealth(store, maxBatch, workers, false)
	return rep
}

// runQuantAB trains the same LR and measures the serving core twice at equal
// batch and worker settings — float64 scoring vs the int8 quantised path —
// then probes every dataset row through both scoring paths serially for the
// accuracy half of the report (max/mean delta, analytic bound violations,
// and a deterministic checksum of the delta stream).
func runQuantAB(ds *data.Dataset, conc, workers, maxBatch, pretrain int, dur time.Duration, seed int64) report {
	m, w, store := trainedServeStore(ds, pretrain, seed)
	cfg := func(quantized bool) serve.Config {
		return serve.Config{
			MaxBatch: maxBatch, MaxDelay: 2 * time.Millisecond,
			QueueDepth: 8 * conc, Workers: workers, Quantized: quantized,
		}
	}
	// The first quantised window republishes the snapshot with its int8 twin
	// attached; the float windows score the same float weights either way.
	var rep report
	qab := &quantABReport{ProbeRows: ds.N()}
	rep.Runs, rep.pairRatios, qab.Speedup = pairedAB(func(quant bool) runReport {
		if quant {
			return measureServe(m, store, ds, "inproc-quant", cfg(true), conc, dur/abPairs, seed)
		}
		return measureServe(m, store, ds, "inproc-float", cfg(false), conc, dur/abPairs, seed)
	})
	rep.Server = inprocHealth(store, maxBatch, workers, true)

	qw := model.Quantize(w)
	scr := m.NewScratch()
	sum := fnv.New64a()
	var buf [8]byte
	var totalDelta float64
	for i := 0; i < ds.N(); i++ {
		fs := m.Score(w, ds, i, scr)
		qs := m.QuantScore(qw, ds, i)
		d := math.Abs(qs - fs)
		totalDelta += d
		if d > qab.MaxAbsDelta {
			qab.MaxAbsDelta = d
		}
		if d > qw.RowErrorBound(ds.X, i)*(1+1e-9)+1e-12 {
			qab.BoundViolations++
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(qs-fs))
		sum.Write(buf[:])
	}
	if ds.N() > 0 {
		qab.MeanAbsDelta = totalDelta / float64(ds.N())
	}
	qab.DeltaChecksum = fmt.Sprintf("%016x", sum.Sum64())
	rep.Quant = qab
	return rep
}

// checkReport asserts the sanity the smoke gate relies on.
func checkReport(rep *report, inproc bool, minSpeedup, expectSpeedup float64) error {
	if len(rep.Runs) == 0 {
		return fmt.Errorf("no runs measured")
	}
	for _, r := range rep.Runs {
		if r.OK == 0 {
			return fmt.Errorf("%s: no request succeeded", r.Mode)
		}
		if r.Errors > 0 {
			return fmt.Errorf("%s: %d requests errored", r.Mode, r.Errors)
		}
		if r.OK+r.Rejected+r.Errors != r.Sent && !inproc {
			return fmt.Errorf("%s: %d sent but %d accounted for", r.Mode,
				r.Sent, r.OK+r.Rejected+r.Errors)
		}
		if r.ThroughputRPS <= 0 {
			return fmt.Errorf("%s: nonpositive throughput", r.Mode)
		}
		if r.LatencyP50Ms > r.LatencyP99Ms || r.LatencyP99Ms > r.LatencyMaxMs {
			return fmt.Errorf("%s: quantiles out of order (p50 %.3f, p99 %.3f, max %.3f)",
				r.Mode, r.LatencyP50Ms, r.LatencyP99Ms, r.LatencyMaxMs)
		}
	}
	if rep.Server == nil || rep.Server.FingerprintKey == "" {
		return fmt.Errorf("report carries no server fingerprint")
	}
	if minSpeedup > 0 && rep.Speedup < minSpeedup {
		return fmt.Errorf("batched speedup %.2fx below required %.2fx", rep.Speedup, minSpeedup)
	}
	if rep.Quant != nil && rep.Quant.BoundViolations > 0 {
		return fmt.Errorf("%d quantised scores exceed the analytic error bound", rep.Quant.BoundViolations)
	}
	if expectSpeedup > 0 {
		if rep.Quant == nil {
			return fmt.Errorf("-expect-speedup needs the -quant-ab report")
		}
		if rep.Quant.Speedup < expectSpeedup {
			return fmt.Errorf("quantised/float speedup %.2fx below required %.2fx",
				rep.Quant.Speedup, expectSpeedup)
		}
	}
	return nil
}
