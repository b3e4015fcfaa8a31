// Command sgdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	sgdbench -experiment table1|table2|table3|fig6|fig7|fig8|fig9|all \
//	         [-maxn 4000] [-datasets covtype,w8a] [-tasks lr,svm,mlp] \
//	         [-epochs 300] [-tol 0.01] [-v] [-quiet] \
//	         [-trace run.jsonl] [-obs] [-debug-addr :6060]
//
// Times are modeled device seconds for the paper's hardware (2x Xeon
// E5-2660 v4, Tesla K80) priced at the full Table I dataset sizes;
// statistical efficiency (epochs) is measured by actually running every
// configuration at the generated scale.
//
// Observability: -trace streams one JSONL event per (engine, dataset, epoch)
// for inspection with sgdtrace; -obs prints per-engine phase/counter
// summaries after the experiments; -debug-addr serves expvar ("sgd_obs"),
// net/http/pprof and a Prometheus /metrics endpoint while the run executes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sgdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "table1|table2|table3|fig6|fig7|fig8|fig9|tolsweep|all")
		maxN       = fs.Int("maxn", 4000, "max examples generated per dataset")
		datasets   = fs.String("datasets", "", "comma-separated dataset filter (default all)")
		tasks      = fs.String("tasks", "", "comma-separated task filter: lr,svm,mlp (default all)")
		epochs     = fs.Int("epochs", 300, "max epochs per convergence drive")
		tol        = fs.Float64("tol", 0.01, "convergence tolerance relative to the optimal loss")
		verbose    = fs.Bool("v", false, "log progress")
		quiet      = fs.Bool("quiet", false, "suppress progress logging even with -v")
		curveDir   = fs.String("curves", "", "directory for Fig 7 loss-curve CSVs")
		repeats    = fs.Int("repeats", 1, "repetitions of each asynchronous drive (paper: >=10)")
		tracePath  = fs.String("trace", "", "write a JSONL observability trace to this file (inspect with sgdtrace)")
		obsSummary = fs.Bool("obs", false, "print per-engine phase/counter summaries after the run")
		debugAddr  = fs.String("debug-addr", "", "serve expvar, pprof and Prometheus /metrics on this address (e.g. :6060)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := bench.Options{
		MaxN:      *maxN,
		MaxEpochs: *epochs,
		Tol:       *tol,
		Verbose:   *verbose,
		Quiet:     *quiet,
		Out:       stdout,
		CurveDir:  *curveDir,
		Repeats:   *repeats,
		TracePath: *tracePath,
	}
	if *datasets != "" {
		opts.Datasets = strings.Split(*datasets, ",")
	}
	if *tasks != "" {
		opts.Tasks = strings.Split(*tasks, ",")
	}
	if *tracePath != "" {
		// Fail with a clean error on an unwritable path instead of the
		// harness panic; New reopens (and truncates) the same file.
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "sgdbench: cannot create trace: %v\n", err)
			return 1
		}
		f.Close()
	}
	h := bench.New(opts)

	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr, h.Aggregator())
		if err != nil {
			fmt.Fprintf(stderr, "sgdbench: debug server: %v\n", err)
			h.Close()
			return 1
		}
		fmt.Fprintf(stderr, "sgdbench: debug server on %s\n", addr)
	}

	runOne := func(name string) bool {
		switch name {
		case "table1":
			h.Table1()
		case "table2":
			h.Table2()
		case "table3":
			h.Table3()
		case "fig6":
			h.Fig6()
		case "fig7":
			h.Fig7()
		case "fig8":
			h.Fig8()
		case "fig9":
			h.Fig9()
		case "tolsweep":
			h.TolSweep()
		default:
			fmt.Fprintf(stderr, "sgdbench: unknown experiment %q\n", name)
			return false
		}
		return true
	}
	if *experiment == "all" {
		for _, name := range []string{"table1", "table2", "table3", "fig6", "fig7", "fig8", "fig9"} {
			runOne(name)
		}
	} else {
		for _, name := range strings.Split(*experiment, ",") {
			if !runOne(name) {
				h.Close()
				return 2
			}
		}
	}

	if *obsSummary {
		fmt.Fprintln(stdout, "Observability summary")
		fmt.Fprint(stdout, h.Aggregator().Summary())
	}
	if err := h.Close(); err != nil {
		fmt.Fprintf(stderr, "sgdbench: closing trace: %v\n", err)
		return 1
	}
	return 0
}
