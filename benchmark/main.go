// Command benchmark is the repository's one repeatable benchmark: it runs one
// workload, checks the program's outputs, and prints every metric by name
// with its unit. BENCHMARK.json at the repository root names the workloads
// and metrics; README.md in this directory says what each measures and why.
//
//	benchmark -workload <name> -seed <n> [-seconds <s>] [-trace 0|1|<file>]
//	benchmark -calibrate [-workload <name>] [-seed <n>]
//	benchmark -aa-report <results.jsonl>
//
// It runs from the repository root, where it reads BENCHMARK.json: the metric
// names, units and bounds are written down there and nowhere else.
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":123,"failed":0,"metrics":{"epoch_ms":{"value":11.8,"unit":"ms"},...}}
//
// The exit code is 0 when every output check passed, 1 when one failed or
// the run could not finish, 2 on a usage or environment error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

// protocolSeconds is the -seconds the README's protocol is written for (and
// run_seconds of BENCHMARK.json): every window and repetition budget below is
// stated at this value and scales with -seconds/protocolSeconds.
const protocolSeconds = 22

// maxProcs caps the cores the benchmark uses, so that the numbers mean the
// same on every machine the runs land on (they get 2 to 4 cores).
const maxProcs = 4

// stamp identifies the machine and build a result came from.
type stamp struct {
	NProc     int    `json:"nproc"`
	P         int    `json:"P"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func machineStamp(P int) stamp {
	s := stamp{NProc: runtime.NumCPU(), P: P, GoVersion: runtime.Version(), Commit: "unknown", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	return s
}

// metricSpec is one metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// benchmarkSpec is the part of BENCHMARK.json the program reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 0, "offsets the dataset seed, every shuffle seed and the request order")
	seconds := fs.Float64("seconds", protocolSeconds, "timed work per run; every window and repetition budget scales with it")
	specPath := fs.String("spec", "BENCHMARK.json", "the file that lists the metrics")
	trace := fs.String("trace", "0", "0: untraced run, end-to-end metrics; 1 or a file name: traced run, per-layer metrics and a span file")
	calibrate := fs.Bool("calibrate", false, "print reference and engine loss curves with their spread, to place the targets")
	aa := fs.String("aa-report", "", "summarise a file of result lines written by aa.sh")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// A parallel number means something only against real cores: refuse an
	// environment that pretends to more than the machine has.
	nproc := runtime.NumCPU()
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > nproc {
			fmt.Fprintf(stderr, "benchmark: GOMAXPROCS=%d exceeds the %d CPUs available; unset it\n", n, nproc)
			return 2
		}
	}
	P := nproc
	if P > maxProcs {
		P = maxProcs
	}
	runtime.GOMAXPROCS(P) // before anything touches pool.Default, which sizes itself once
	st := machineStamp(P)

	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *aa != "" {
		if err := aaReport(*aa, spec, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	if *calibrate {
		if err := runCalibrate(*name, P, *seed, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1")
		return 2
	}

	var tr *tracer
	tracePath := ""
	switch *trace {
	case "0", "":
	case "1":
		tracePath = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
		tr = newTracer()
	default:
		tracePath = *trace
		tr = newTracer()
	}

	stampJSON, _ := json.Marshal(st) // a struct of strings and ints
	fmt.Fprintf(stderr, "# %s seed=%d seconds=%g trace=%v %s\n", wl.name, *seed, *seconds, tr != nil, stampJSON)
	o, err := runWorkload(wl, P, *seed, *seconds, tr, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if tr != nil {
		if err := writeSpansJSONL(tracePath, tr.snapshot()); err != nil {
			fmt.Fprintln(stderr, "benchmark: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stderr, "# %d spans written to %s\n", len(tr.snapshot()), tracePath)
	}
	if P == 1 {
		o.note("P = 1: numbers that assert parallel behaviour are skipped, not passed")
	}
	fmt.Fprintf(stdout, "{\"stamp\":%s,\"workload\":%q,\"seed\":%d,\"seconds\":%g,\"traced\":%v}\n", stampJSON, wl.name, *seed, *seconds, tr != nil)
	defs := spec.EndToEnd
	if tr != nil {
		defs = spec.PerLayer
	}
	return report(o, defs, tr != nil, stdout, stderr)
}

// report prints what a run produced — notes and failed checks on stderr, the
// result line last on stdout — and returns the exit code: 0 only when every
// output check passed. An untraced run reports the end-to-end metrics and a
// traced run the per-layer ones, each exactly the set BENCHMARK.json lists.
func report(o *outcome, defs []metricSpec, traced bool, stdout, stderr io.Writer) int {
	reported := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			// A number that could not be taken on this machine reads 0 and
			// is named as skipped; an end-to-end one missing is a bug.
			if !traced {
				fmt.Fprintf(stderr, "benchmark: metric %s was not measured\n", d.Name)
				return 1
			}
			o.skipped = append(o.skipped, d.Name)
		}
		reported[d.Name] = metric{v, d.Unit}
	}
	for _, n := range o.notes {
		fmt.Fprintln(stderr, "#", n)
	}
	for _, n := range o.skipped {
		fmt.Fprintln(stderr, "# skipped:", n)
	}
	for _, p := range o.problems {
		fmt.Fprintln(stderr, "# CHECK FAILED:", p)
	}
	for _, d := range defs {
		fmt.Fprintf(stderr, "%-34s %14.6g %s\n", d.Name, reported[d.Name].Value, d.Unit)
	}

	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: reported}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
