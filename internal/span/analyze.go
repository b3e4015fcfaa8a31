package span

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// The offline analysis half: cmd/sgdtrace's span mode reads kept traces
// back and asks where the tail went. Attribution is the key number:
// for the traces at or above the p99 duration, what fraction of wall time
// is covered by named top-level spans? The serve instrumentation records a
// contiguous chain (admission → queue_wait → batch_assembly → score →
// chaos_stall → finalize → resume), so healthy attribution is ~100% and
// any unattributed remainder is reported explicitly instead of silently
// absorbed.

// NameStat aggregates every span sharing a name across the analyzed traces.
type NameStat struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"` // most common parent
	Depth  int     `json:"depth"`            // 1 = direct child of the root
	Count  int     `json:"count"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
	// TotalUS is the summed duration; for top-level spans its share of the
	// summed trace wall time is the attribution column.
	TotalUS float64 `json:"total_us"`
}

// Attribution is the p99-tail coverage verdict.
type Attribution struct {
	// P99US is the p99 trace duration; TailTraces counts traces at or
	// above it.
	P99US      float64 `json:"p99_us"`
	TailTraces int     `json:"tail_traces"`
	// Attributed is the fraction of summed tail wall time covered by
	// top-level spans; UnattributedUS is the explicit remainder.
	Attributed     float64 `json:"attributed"`
	UnattributedUS float64 `json:"unattributed_us"`
}

// Analysis is the full summary of a span trace set.
type Analysis struct {
	Traces   int            `json:"traces"`
	Spans    int            `json:"spans"`
	ByKeep   map[string]int `json:"by_keep"`
	ByFault  map[string]int `json:"by_fault,omitempty"`
	Errors   int            `json:"errors"`
	MaxDepth int            `json:"max_depth"`
	P50US    float64        `json:"p50_us"`
	P99US    float64        `json:"p99_us"`
	MaxUS    float64        `json:"max_us"`
	Names    []NameStat     `json:"names"` // sorted by total time, descending
	Tail     Attribution    `json:"tail_attribution"`
}

// quantile returns the exact p-quantile of sorted (ascending) samples.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// depthOf resolves a span's depth by walking parent names within its trace;
// unknown parents root the chain, and a cycle guard bounds the walk.
func depthOf(rec *TraceRec, s *SpanRec) int {
	depth := 1
	parent := s.Parent
	for hop := 0; parent != "" && hop < len(rec.Spans); hop++ {
		next := ""
		for i := range rec.Spans {
			if rec.Spans[i].Name == parent {
				next = rec.Spans[i].Parent
				break
			}
		}
		depth++
		parent = next
	}
	return depth
}

// Analyze summarises a set of kept traces.
func Analyze(traces []TraceRec) *Analysis {
	a := &Analysis{ByKeep: map[string]int{}, ByFault: map[string]int{}}
	durs := make([]float64, 0, len(traces))
	byName := map[string]*NameStat{}
	samples := map[string][]float64{}
	parents := map[string]map[string]int{}
	var order []string
	for i := range traces {
		rec := &traces[i]
		a.Traces++
		a.ByKeep[rec.Keep]++
		if rec.Fault != "" {
			a.ByFault[rec.Fault]++
		}
		if rec.Err != "" {
			a.Errors++
		}
		durs = append(durs, rec.DurUS)
		for j := range rec.Spans {
			s := &rec.Spans[j]
			a.Spans++
			ns, ok := byName[s.Name]
			if !ok {
				ns = &NameStat{Name: s.Name}
				byName[s.Name] = ns
				parents[s.Name] = map[string]int{}
				order = append(order, s.Name)
			}
			ns.Count++
			ns.TotalUS += s.DurUS
			if s.DurUS > ns.MaxUS {
				ns.MaxUS = s.DurUS
			}
			if d := depthOf(rec, s); d > ns.Depth {
				ns.Depth = d
				if d > a.MaxDepth {
					a.MaxDepth = d
				}
			}
			parents[s.Name][s.Parent]++
			samples[s.Name] = append(samples[s.Name], s.DurUS)
		}
	}
	sort.Float64s(durs)
	a.P50US = quantile(durs, 0.50)
	a.P99US = quantile(durs, 0.99)
	a.MaxUS = quantile(durs, 1)

	for _, name := range order {
		ns := byName[name]
		ss := samples[name]
		sort.Float64s(ss)
		ns.P50US = quantile(ss, 0.50)
		ns.P99US = quantile(ss, 0.99)
		best, bestN := "", -1
		for p, n := range parents[name] {
			if n > bestN || (n == bestN && p < best) {
				best, bestN = p, n
			}
		}
		ns.Parent = best
		a.Names = append(a.Names, *ns)
	}
	sort.Slice(a.Names, func(i, j int) bool {
		if a.Names[i].TotalUS != a.Names[j].TotalUS {
			return a.Names[i].TotalUS > a.Names[j].TotalUS
		}
		return a.Names[i].Name < a.Names[j].Name
	})

	// Tail attribution over the traces at or above the p99 duration.
	a.Tail.P99US = a.P99US
	var wall, attributed float64
	for i := range traces {
		rec := &traces[i]
		if rec.DurUS < a.P99US {
			continue
		}
		a.Tail.TailTraces++
		wall += rec.DurUS
		var top float64
		for j := range rec.Spans {
			if rec.Spans[j].Parent == "" {
				top += rec.Spans[j].DurUS
			}
		}
		if top > rec.DurUS {
			top = rec.DurUS // rounding: never claim more than the wall
		}
		attributed += top
	}
	if wall > 0 {
		a.Tail.Attributed = attributed / wall
		a.Tail.UnattributedUS = wall - attributed
	}
	return a
}

// fmtUS renders microseconds human-readably.
func fmtUS(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.2fms", us/1e3)
	default:
		return fmt.Sprintf("%.1fµs", us)
	}
}

// WriteSummary renders the analysis: header, keep/fault breakdown, the
// per-span attribution table (top names by total time) and the tail
// attribution verdict.
func (a *Analysis) WriteSummary(w io.Writer, top int) {
	fmt.Fprintf(w, "%d traces (%d spans, max depth %d)", a.Traces, a.Spans, a.MaxDepth)
	if a.Traces > 0 {
		var keeps []string
		for _, k := range []string{KeepHead, KeepSlow, KeepFault, KeepError} {
			if n := a.ByKeep[k]; n > 0 {
				keeps = append(keeps, fmt.Sprintf("%s %d", k, n))
			}
		}
		fmt.Fprintf(w, ": kept by %s", strings.Join(keeps, ", "))
	}
	fmt.Fprintln(w)
	if a.Traces == 0 {
		return
	}
	fmt.Fprintf(w, "trace wall time: p50 %s  p99 %s  max %s\n", fmtUS(a.P50US), fmtUS(a.P99US), fmtUS(a.MaxUS))
	if len(a.ByFault) > 0 {
		var parts []string
		for f, n := range a.ByFault {
			parts = append(parts, fmt.Sprintf("%s=%d", f, n))
		}
		sort.Strings(parts)
		fmt.Fprintf(w, "chaos faults absorbed: %s (%d traces errored)\n", strings.Join(parts, " "), a.Errors)
	} else if a.Errors > 0 {
		fmt.Fprintf(w, "%d traces errored\n", a.Errors)
	}

	fmt.Fprintf(w, "\n%-18s %5s %7s %10s %10s %10s %10s\n", "span", "depth", "count", "p50", "p99", "max", "total")
	n := len(a.Names)
	if top > 0 && top < n {
		n = top
	}
	for _, ns := range a.Names[:n] {
		name := ns.Name
		if ns.Depth > 1 {
			name = strings.Repeat("  ", ns.Depth-1) + name
		}
		fmt.Fprintf(w, "%-18s %5d %7d %10s %10s %10s %10s\n",
			name, ns.Depth, ns.Count, fmtUS(ns.P50US), fmtUS(ns.P99US), fmtUS(ns.MaxUS), fmtUS(ns.TotalUS))
	}
	if n < len(a.Names) {
		fmt.Fprintf(w, "  (%d more span names)\n", len(a.Names)-n)
	}

	fmt.Fprintf(w, "\np99 tail attribution (%d traces >= %s): %.1f%% of wall time in named spans, %s unattributed\n",
		a.Tail.TailTraces, fmtUS(a.Tail.P99US), 100*a.Tail.Attributed, fmtUS(a.Tail.UnattributedUS))
}

// WriteWaterfall renders one trace as an indented critical-path waterfall:
// top-level spans in start order, children beneath their parents, each with
// a proportional bar.
func WriteWaterfall(w io.Writer, rec *TraceRec) {
	fmt.Fprintf(w, "trace %s %s %s keep=%s", rec.Trace, rec.Root, fmtUS(rec.DurUS), rec.Keep)
	if rec.Fault != "" {
		fmt.Fprintf(w, " fault=%s", rec.Fault)
	}
	if rec.Err != "" {
		fmt.Fprintf(w, " err=%s", rec.Err)
	}
	fmt.Fprintln(w)
	const cols = 32
	scale := rec.DurUS
	if scale <= 0 {
		scale = 1
	}
	// Stable child ordering: by start offset within each parent.
	idx := make([]int, len(rec.Spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return rec.Spans[idx[i]].StartUS < rec.Spans[idx[j]].StartUS
	})
	var emit func(parent string, depth int)
	emit = func(parent string, depth int) {
		for _, i := range idx {
			s := &rec.Spans[i]
			if s.Parent != parent {
				continue
			}
			lo := int(s.StartUS / scale * cols)
			width := int(s.DurUS / scale * cols)
			if width < 1 {
				width = 1
			}
			if lo > cols-1 {
				lo = cols - 1
			}
			if lo+width > cols {
				width = cols - lo
			}
			bar := strings.Repeat(" ", lo) + strings.Repeat("█", width) + strings.Repeat(" ", cols-lo-width)
			label := strings.Repeat("  ", depth) + s.Name
			fmt.Fprintf(w, "  %-20s |%s| %9s +%s", label, bar, fmtUS(s.DurUS), fmtUS(s.StartUS))
			if s.Worker >= 0 {
				fmt.Fprintf(w, " worker=%d", s.Worker)
			}
			if s.Fault != "" {
				fmt.Fprintf(w, " fault=%s", s.Fault)
			}
			fmt.Fprintln(w)
			if s.Name != parent { // guard self-parented spans
				emit(s.Name, depth+1)
			}
		}
	}
	emit("", 0)
}
