package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// aaLine is one run as aa.sh records it.
type aaLine struct {
	Set      int    `json:"set"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// aaReport prints the A/A table: for every workload and end-to-end metric,
// each set's median over its seeds and the spread between its quartiles as
// a share of that median (the acceptance rule's spread), then how far the
// set medians lie apart. A cell is flagged when a spread or the distance
// between set medians exceeds half the metric's bound, and called unresolved
// when it exceeds the bound itself: such a cell cannot tell a regression of
// the size of its bound from two runs of the same code.
func aaReport(path string, spec *benchmarkSpec, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// values[workload][metric][set] = one value per seed
	values := map[string]map[string]map[int][]float64{}
	var workloadOrder []string
	sets := map[int]bool{}
	incorrect, failed := 0, int64(0)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l aaLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !l.Result.Correct {
			incorrect++
		}
		failed += l.Result.Failed
		sets[l.Set] = true
		if values[l.Workload] == nil {
			values[l.Workload] = map[string]map[int][]float64{}
			workloadOrder = append(workloadOrder, l.Workload)
		}
		for name, m := range l.Result.Metrics {
			if values[l.Workload][name] == nil {
				values[l.Workload][name] = map[int][]float64{}
			}
			values[l.Workload][name][l.Set] = append(values[l.Workload][name][l.Set], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	var setIDs []int
	for s := range sets {
		setIDs = append(setIDs, s)
	}
	sort.Ints(setIDs)

	fmt.Fprintf(out, "| workload | metric | bound |")
	for _, s := range setIDs {
		fmt.Fprintf(out, " set %d median (spread) |", s)
	}
	fmt.Fprintf(out, " medians apart | |\n|---|---|---|")
	for range setIDs {
		fmt.Fprintf(out, "---|")
	}
	fmt.Fprintf(out, "---|---|\n")
	flagged, unresolved := 0, 0
	for _, w := range workloadOrder {
		for _, d := range spec.EndToEnd {
			bySet := values[w][d.Name]
			if bySet == nil {
				continue
			}
			fmt.Fprintf(out, "| %s | %s | %.2f |", w, d.Name, d.Bound)
			var medians []float64
			worst := 0.0
			for _, s := range setIDs {
				q1, q2, q3 := quartiles(bySet[s])
				sp := 0.0
				if q2 != 0 {
					sp = (q3 - q1) / q2
				}
				if d.Name != "setup_s" && sp > worst {
					worst = sp // setup_s is judged on its medians only
				}
				medians = append(medians, q2)
				fmt.Fprintf(out, " %.6g (%.1f%%) |", q2, 100*sp)
			}
			apart := 0.0
			if m := median(medians); m != 0 {
				sorted := append([]float64(nil), medians...)
				sort.Float64s(sorted)
				apart = (sorted[len(sorted)-1] - sorted[0]) / m
			}
			mark := ""
			switch {
			case worst > d.Bound || apart > d.Bound:
				mark = "UNRESOLVED"
				unresolved++
			case worst > d.Bound/2 || apart > d.Bound/2:
				mark = "over half the bound"
				flagged++
			}
			fmt.Fprintf(out, " %.1f%% | %s |\n", 100*apart, mark)
		}
	}
	fmt.Fprintf(out, "\n%d cells unresolved (a spread or the set medians' distance beyond the bound), %d more over half their bound; %d runs with a failed output check; %d failed operations.\n", unresolved, flagged, incorrect, failed)
	return nil
}
