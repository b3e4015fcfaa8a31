// Command sgdgate is the regression gate for the engine matrix: it re-runs
// every configuration of the paper's sync/async × CPU/GPU × dense/sparse
// cube, plus the sharded parameter-server and Local-SGD tiers (12 configs
// in all), at a small seeded scale. compare checks the convergence curves
// against committed goldens (deterministic engines) or quantile envelopes
// (asynchronous engines); chaos re-runs the matrix under a named fault plan
// and reports how much each config's time-to-threshold stretches — the
// paper's sync-fragile/async-robust contrast as data.
//
// Subcommands:
//
//	sgdgate run     [-only substr] [-report out.json]  run the matrix, write raw curves (no gating)
//	sgdgate compare [-only substr] [-golden dir] [-report out.json] [-update]
//	                                               gate against goldens; -update re-records them
//	sgdgate chaos   [-plan storm] [-seed 1] [-seq] [-deadline 0] [-ssp 0] [-tol 0.1]
//	                [-intensities 0,0.5,1] [-out report.json] [-assert-contrast 0]
//	                [-strategies sync,ps-async] [-devices cpu-par,gpu] [-datasets covtype,w8a]
//	                [-maxn 0] [-epochs 0] [-threads 0]
//	sgdgate chaos -list                            enumerate the fault plans
//
// -only and the -strategies/-devices/-datasets allow-lists trim the matrix;
// a substring or token matching nothing is a usage error, so a typo can not
// silently gate an empty matrix. -maxn, -epochs and -threads (the modeled
// thread, replica or cluster-worker count) override the matrix scale.
//
// chaos runs on the virtual-time scheduler (-seq, the default), so the
// report replays exactly for a given -seed. -deadline arms the barriered
// engines' straggler mitigation; -ssp bounds the Hogwild workers' progress
// skew. -assert-contrast R turns the report into a gate: it fails unless the
// report holds a synchronous and an asynchronous config (as the regress
// strategy table classes them), every asynchronous config reaches its loss
// threshold under the nominal plan, and the mildest synchronous degradation
// is at least R times the worst asynchronous one (an unreached synchronous
// threshold counts as infinite degradation). The float flags refuse NaN and
// ±Inf.
//
// Exit status: 0 all gates pass, 1 a run or gate failed, 2 usage or I/O
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/regress"
)

const defaultGoldenDir = "internal/regress/testdata/golden"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "chaos":
		return cmdChaos(args[1:], stdout, stderr)
	default:
		usage(stderr)
		return 2
	}
}

func usage(stderr io.Writer) {
	fmt.Fprintln(stderr, "usage: sgdgate {run|compare|chaos} [flags]  (see go doc ./cmd/sgdgate)")
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "sgdgate:", err)
	return 2
}

// cmdRun executes the matrix and dumps every seeded curve: the inspection
// mode for deciding tolerances and debugging a failing gate.
func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	report := fs.String("report", "", "write raw run results as JSON to this path")
	only := fs.String("only", "", "keep configs whose fingerprint key contains this substring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	configs, err := regress.MatrixFilter{Only: *only}.Apply(regress.FullMatrix())
	if err != nil {
		return fail(stderr, err)
	}
	type runDump struct {
		Key  string               `json:"key"`
		Cfg  regress.Config       `json:"config"`
		Runs []regress.RunOutcome `json:"runs"`
	}
	var dumps []runDump
	for _, c := range configs {
		runs, err := regress.RunSeeds(c)
		if err != nil {
			return fail(stderr, err)
		}
		key := c.Fingerprint().Key()
		dumps = append(dumps, runDump{Key: key, Cfg: c, Runs: runs})
		last := runs[len(runs)-1]
		fmt.Fprintf(stdout, "%-48s seeds=%d final_loss=%.6f sec/epoch=%.4g\n",
			key, len(runs), last.Losses[len(last.Losses)-1], last.SecPerEpoch)
	}
	if err := regress.WriteReport(*report, dumps); err != nil {
		return fail(stderr, err)
	}
	return 0
}

// cmdCompare is the convergence gate (or, with -update, the golden
// re-recorder).
func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	golden := fs.String("golden", defaultGoldenDir, "directory of committed goldens")
	report := fs.String("report", "", "write the gate report as JSON to this path")
	update := fs.Bool("update", false, "re-record goldens instead of comparing")
	only := fs.String("only", "", "keep configs whose fingerprint key contains this substring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	configs, err := regress.MatrixFilter{Only: *only}.Apply(regress.FullMatrix())
	if err != nil {
		return fail(stderr, err)
	}
	if *update {
		if err := regress.Update(*golden, configs); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "sgdgate: recorded %d goldens under %s\n", len(configs), *golden)
		return 0
	}
	rep := regress.Gate(*golden, configs)
	for _, r := range rep.Results {
		fmt.Fprintf(stdout, "%-6s %-48s %s\n", r.Status, r.Key, r.Detail)
	}
	if err := regress.WriteReport(*report, rep); err != nil {
		return fail(stderr, err)
	}
	if !rep.Pass {
		fmt.Fprintln(stderr, "sgdgate: convergence gate FAILED")
		return 1
	}
	fmt.Fprintln(stdout, "sgdgate: convergence gate passed")
	return 0
}

// cmdChaos writes the degradation report of the matrix under a fault plan;
// with -assert-contrast it is the sync/async contrast gate.
func cmdChaos(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts regress.ChaosOpts
	var filter regress.MatrixFilter
	planName := fs.String("plan", "storm", "fault plan name (-list to enumerate)")
	list := fs.Bool("list", false, "list the named fault plans and exit")
	out := fs.String("out", "-", "write the report JSON to this path (- = stdout)")
	intens := fs.String("intensities", "", "comma-separated plan intensity multipliers (default 1)")
	contrast := fs.Float64("assert-contrast", 0, "fail unless min sync slowdown >= this multiple of max async slowdown (0 = report only)")
	fs.Int64Var(&opts.Seed, "seed", 1, "seed for model init, shuffles, fault streams and the schedule")
	fs.BoolVar(&opts.Sequential, "seq", true, "run on the virtual-time sequential scheduler (exact replay)")
	fs.Float64Var(&opts.Deadline, "deadline", 0, "sync barrier deadline as a multiple of the healthy epoch (0 = classic BSP)")
	fs.IntVar(&opts.SSPBound, "ssp", 0, "bound Hogwild workers' progress skew to this many updates (0 = unbounded)")
	fs.Float64Var(&opts.Tol, "tol", 0.1, "loss-gap tolerance defining each config's threshold")
	fs.StringVar(&filter.Strategies, "strategies", "", "comma filter on matrix strategies")
	fs.StringVar(&filter.Devices, "devices", "", "comma filter on matrix devices")
	fs.StringVar(&filter.Datasets, "datasets", "", "comma filter on matrix datasets")
	fs.IntVar(&filter.N, "maxn", 0, "override per-config example count (0 = matrix default)")
	fs.IntVar(&filter.Epochs, "epochs", 0, "override per-config epoch budget (0 = matrix default)")
	fs.IntVar(&filter.Threads, "threads", 0, "override modeled thread/replica/worker count (0 = matrix default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A non-finite float does not fail loudly: it prints NaNx, cuts a
	// threshold no run reaches, or switches the contrast gate off.
	for name, v := range map[string]float64{"deadline": opts.Deadline, "tol": opts.Tol, "assert-contrast": *contrast} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fail(stderr, fmt.Errorf("-%s %v is not finite", name, v))
		}
	}
	if *intens != "" {
		for _, f := range strings.Split(*intens, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || !(v >= 0 && v <= math.MaxFloat64) {
				return fail(stderr, fmt.Errorf("bad intensity %q (want a finite number >= 0)", f))
			}
			opts.Intensities = append(opts.Intensities, v)
		}
	}
	if *list {
		for _, name := range chaos.PlanNames() {
			p, _ := chaos.Lookup(name)
			fmt.Fprintf(stdout, "%-10s %s\n", name, p)
		}
		return 0
	}
	plan, err := chaos.Lookup(*planName)
	if err != nil {
		return fail(stderr, fmt.Errorf("%v (plans: %s)", err, strings.Join(chaos.PlanNames(), ", ")))
	}
	configs, err := filter.Apply(regress.FullMatrix())
	if err != nil {
		return fail(stderr, err)
	}
	for _, c := range configs {
		fmt.Fprintf(stderr, "sgdgate: %s under %s...\n", c.Fingerprint().Key(), plan)
	}
	rep, err := regress.Degradation(configs, plan, opts)
	if err != nil {
		fmt.Fprintln(stderr, "sgdgate:", err)
		return 1
	}
	fmt.Fprintf(stderr, "sgdgate: mildest sync degradation %s, worst async %.2fx, async all reached: %v\n",
		slowdownString(rep.MinSyncSlowdown), rep.MaxAsyncSlowdown, rep.AsyncAllReached)
	if *out == "-" || *out == "" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
	} else {
		err = regress.WriteReport(*out, rep)
	}
	if err != nil {
		return fail(stderr, err)
	}
	if *contrast > 0 {
		if err := assertContrast(rep, *contrast); err != nil {
			fmt.Fprintln(stderr, "sgdgate: contrast assertion FAILED:", err)
			return 1
		}
		fmt.Fprintf(stderr, "sgdgate: contrast assertion held (>= %gx)\n", *contrast)
	}
	return 0
}

// assertContrast checks the paper's claim on the report: every barriered
// config degrades at least ratio times more than the worst
// apply-on-arrival one, which itself must still reach its threshold.
func assertContrast(rep regress.DegradationReport, ratio float64) error {
	var haveSync, haveAsync bool
	for _, c := range rep.Configs {
		if regress.IsSyncStrategy(c.Strategy) {
			haveSync = true
		} else {
			haveAsync = true
		}
	}
	if !haveSync || !haveAsync {
		return fmt.Errorf("report needs both a sync and an async config (have sync=%v async=%v)", haveSync, haveAsync)
	}
	if !rep.AsyncAllReached {
		return fmt.Errorf("an async config missed its loss threshold under the plan")
	}
	if rep.MaxAsyncSlowdown <= 0 {
		return fmt.Errorf("no async slowdown recorded")
	}
	// MinSyncSlowdown < 0 means no sync run reached threshold at all:
	// infinite degradation, which trivially clears any finite ratio.
	if rep.MinSyncSlowdown >= 0 && rep.MinSyncSlowdown < ratio*rep.MaxAsyncSlowdown {
		return fmt.Errorf("min sync slowdown %.2fx < %g x max async %.2fx",
			rep.MinSyncSlowdown, ratio, rep.MaxAsyncSlowdown)
	}
	return nil
}

// slowdownString renders a degradation factor, spelling out the -1 sentinel
// (threshold never reached under the plan).
func slowdownString(s float64) string {
	if s < 0 {
		return "unreached"
	}
	return fmt.Sprintf("%.2fx", s)
}
