// Command sgdtrace is the one inspector for both JSONL trace formats.
//
// Epoch traces (bench.Options.TracePath / sgdbench -trace, sgdserve -trace)
// are replayed through the same aggregator the live harness uses, printing
// per-engine phase breakdowns, counter summaries and derived rates.
//
// Span traces (internal/span JSONL: sgdserve -spans or an in-process tracer)
// answer "where did the p99 go?": the per-span attribution table
// (p50/p99/max/total per span name), the tail-attribution verdict — what
// fraction of p99+ request wall time is covered by named spans, with the
// unattributed remainder reported explicitly — and critical-path waterfalls
// for the worst-N traces.
//
// Usage:
//
//	sgdtrace [-engine async] [-dataset w8a] [-prom] trace.jsonl [more.jsonl...]
//	sgdtrace [-spans] [-top 12] [-worst 3] [-keep fault] [-min-attrib 0.95] [-json] spans.jsonl [more.jsonl...]
//
// Pass "-" to read from stdin. Span files are detected by sniffing the first
// line; -spans forces span mode (needed for stdin). With -prom the epoch
// aggregate is printed in the Prometheus text exposition format instead of
// the summary tables. In span mode -min-attrib makes the exit status a gate:
// nonzero when tail attribution falls below the floor, which is how the
// span-smoke CI job asserts the serve path stays explainable.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"

	"repro/internal/obs"
	"repro/internal/span"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// spanFlags are the span-mode options.
type spanFlags struct {
	top, worst int
	keep       string
	minAttrib  float64
	json       bool
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sgdtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		engine  = fs.String("engine", "", "keep only events whose engine name contains this (at a word boundary, so \"sync\" does not match \"async\")")
		dataset = fs.String("dataset", "", "keep only events whose dataset name contains this (at a word boundary)")
		prom    = fs.Bool("prom", false, "print the Prometheus text snapshot instead of summary tables")
		spans   = fs.Bool("spans", false, "treat inputs as request-level span traces (auto-detected for files)")
		sf      spanFlags
	)
	fs.IntVar(&sf.top, "top", 12, "span mode: span names to show in the attribution table")
	fs.IntVar(&sf.worst, "worst", 3, "span mode: worst-N traces to render as waterfalls (0 = none)")
	fs.StringVar(&sf.keep, "keep", "", "span mode: only analyze traces kept for this reason (head, slow, fault, error)")
	fs.Float64Var(&sf.minAttrib, "min-attrib", 0, "span mode: fail (exit 1) when p99 tail attribution is below this fraction")
	fs.BoolVar(&sf.json, "json", false, "span mode: emit the analysis as JSON instead of tables")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sgdtrace [flags] trace.jsonl|spans.jsonl [more.jsonl...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	if *spans || (fs.Arg(0) != "-" && sniffSpans(fs.Arg(0))) {
		return runSpans(fs.Args(), sf, stdin, stdout, stderr)
	}

	events, err := readAll[obs.Event](fs.Args(), stdin)
	if err != nil {
		fmt.Fprintf(stderr, "sgdtrace: %v\n", err)
		return 1
	}
	agg := obs.NewAggregator()
	engineRE, datasetRE := wordPrefix(*engine), wordPrefix(*dataset)
	kept := 0
	for _, ev := range events {
		if engineRE.MatchString(ev.Engine) && datasetRE.MatchString(ev.Dataset) {
			kept++
			agg.AddEvent(ev)
		}
	}

	if *prom {
		fmt.Fprint(stdout, agg.Snapshot())
		return 0
	}
	fmt.Fprintf(stdout, "%d events read, %d after filters, %d runs\n\n", len(events), kept, len(agg.Runs()))
	fmt.Fprint(stdout, agg.Summary())
	return 0
}

// readAll reads every input ("-" = stdin) as one JSONL record stream.
func readAll[T any](paths []string, stdin io.Reader) ([]T, error) {
	var out []T
	for _, path := range paths {
		var recs []T
		var err error
		if path == "-" {
			recs, err = obs.ReadJSONL[T](stdin)
		} else {
			recs, err = obs.ReadJSONLFile[T](path)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// sniffSpans reports whether path's first nonempty line parses as a span
// TraceRec, so `sgdtrace spans.jsonl` just works without -spans.
func sniffSpans(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16*1024*1024)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			return span.Looks(line)
		}
	}
	return false
}

// runSpans is the span-format path: filter by keep reason, then print the
// attribution summary and worst-N waterfalls (or the analysis as JSON) and
// apply the -min-attrib gate.
func runSpans(paths []string, sf spanFlags, stdin io.Reader, stdout, stderr io.Writer) int {
	traces, err := readAll[span.TraceRec](paths, stdin)
	if err != nil {
		fmt.Fprintf(stderr, "sgdtrace: %v\n", err)
		return 1
	}
	if sf.keep != "" {
		filtered := traces[:0]
		for _, tr := range traces {
			if tr.Keep == sf.keep {
				filtered = append(filtered, tr)
			}
		}
		traces = filtered
	}
	if len(traces) == 0 {
		fmt.Fprintln(stderr, "sgdtrace: no traces after filters")
		return 1
	}

	a := span.Analyze(traces)
	if sf.json {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			fmt.Fprintf(stderr, "sgdtrace: %v\n", err)
			return 1
		}
	} else {
		a.WriteSummary(stdout, sf.top)
		if sf.worst > 0 {
			worst := append([]span.TraceRec(nil), traces...)
			sort.Slice(worst, func(i, j int) bool { return worst[i].DurUS > worst[j].DurUS })
			worst = worst[:min(sf.worst, len(worst))]
			fmt.Fprintf(stdout, "\nworst %d traces:\n", len(worst))
			for i := range worst {
				span.WriteWaterfall(stdout, &worst[i])
			}
		}
	}
	if sf.minAttrib > 0 && a.Tail.Attributed < sf.minAttrib {
		fmt.Fprintf(stderr, "sgdtrace: p99 tail attribution %.3f below floor %.3f (%.1fµs unattributed)\n",
			a.Tail.Attributed, sf.minAttrib, a.Tail.UnattributedUS)
		return 1
	}
	return 0
}

// wordPrefix matches names containing pat at a word boundary (an empty pat
// matches everything). Engine names nest ("sync/cpu-par(56)", "async/gpu"),
// so a plain substring match would make -engine sync select the async runs
// too.
func wordPrefix(pat string) *regexp.Regexp {
	return regexp.MustCompile(`(^|[^A-Za-z0-9])` + regexp.QuoteMeta(pat))
}
