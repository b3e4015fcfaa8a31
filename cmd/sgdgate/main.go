// Command sgdgate is the regression gate for the engine matrix: it re-runs
// every configuration of the paper's sync/async × CPU/GPU × dense/sparse
// cube, plus the sharded parameter-server, Local-SGD and heterogeneous
// CPU+GPU tiers (14 configs in all), at a small seeded scale and checks the
// convergence curves against committed goldens (deterministic engines) or
// quantile envelopes (asynchronous engines).
//
// Subcommands:
//
//	sgdgate run     [-only substr] [-report out.json]  run the matrix, write raw curves (no gating)
//	sgdgate compare [-only substr] [-golden dir] [-report out.json] [-update]
//	                                               gate against goldens; -update re-records them
//
// -only keeps the configurations whose fingerprint key contains the
// substring; a substring matching nothing is a usage error, so a typo can
// not silently gate an empty matrix. Exit status: 0 all gates pass, 1 a
// gate failed, 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

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
	default:
		usage(stderr)
		return 2
	}
}

func usage(stderr io.Writer) {
	fmt.Fprintln(stderr, "usage: sgdgate {run|compare} [flags]  (see go doc ./cmd/sgdgate)")
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
