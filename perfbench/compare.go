package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain compares the untraced runs of two commits, recorded with
// --out, workload by workload and metric by metric, and gives each pair
// a verdict by the bounds in BENCHMARK.json, read from the working
// directory, the repository root. It refuses result sets whose
// fingerprints differ. It exits 1 if any verdict is "worse".
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.jsonl HEAD.jsonl")
		return 2
	}
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	base, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	head, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	lines, worse, err := compareRecords(bounds, base, head)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if worse {
		return 1
	}
	return 0
}

func loadBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var desc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &desc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return desc.EndToEnd, nil
}

// loadRecords reads the untraced runs of a results file.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// verdict applies the benchmark's bound to one metric on one workload:
// "worse" when the head median is worse than the base median by more
// than the bound, "improved" when the head wins nine pairs in ten by
// more than the base's own spread, "unresolved" when either side's
// spread is wider than the bound and no side beats every run of the
// other, and "unchanged" otherwise.
func verdict(b bound, base, head []float64) string {
	bq1, bmed, bq3 := quartiles(base)
	hq1, hmed, hq3 := quartiles(head)
	if bmed == 0 || hmed == 0 {
		return "unresolved"
	}
	sign := 1.0 // positive differences are worse
	if b.Better == "higher" {
		sign = -1
	}
	change := sign * (hmed - bmed) / bmed
	spread := max((bq3-bq1)/bmed, (hq3-hq1)/hmed)
	switch {
	case separated(sign, head, base):
		return "improved"
	case separated(sign, base, head) && change > b.Bound:
		return "worse"
	case spread > b.Bound:
		return "unresolved"
	case change > b.Bound:
		return "worse"
	case change < 0 && pairWins(sign, base, head) && math.Abs(hmed-bmed) > bq3-bq1:
		return "improved"
	}
	return "unchanged"
}

// separated reports whether every run of a reads better than every run
// of b.
func separated(sign float64, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(x-y) >= 0 {
				return false
			}
		}
	}
	return true
}

// pairWins reports whether the head run beat its paired base run in at
// least nine pairs out of ten (ties count for neither side).
func pairWins(sign float64, base, head []float64) bool {
	n := min(len(base), len(head))
	if n == 0 {
		return false
	}
	wins := 0
	for i := 0; i < n; i++ {
		if sign*(head[i]-base[i]) < 0 {
			wins++
		}
	}
	return float64(wins) >= 0.9*float64(n)
}

// compareRecords builds the comparison table; worse reports whether any
// metric got worse by more than its bound.
func compareRecords(bounds []bound, base, head []record) (lines []string, worse bool, err error) {
	type side struct {
		fp   string
		vals map[string][]float64
	}
	group := func(rs []record, label string) (map[string]*side, error) {
		out := make(map[string]*side)
		for _, r := range rs {
			w := r.Fingerprint.Workload
			s, ok := out[w]
			if !ok {
				s = &side{fp: r.Fingerprint.comparable(), vals: make(map[string][]float64)}
				out[w] = s
			}
			if s.fp != r.Fingerprint.comparable() {
				return nil, fmt.Errorf("%s: runs of %s have different fingerprints:\n  %s\n  %s", label, w, s.fp, r.Fingerprint.comparable())
			}
			for name, m := range r.Report.Metrics {
				s.vals[name] = append(s.vals[name], m.Value)
			}
		}
		return out, nil
	}
	b, err := group(base, "base")
	if err != nil {
		return nil, false, err
	}
	h, err := group(head, "head")
	if err != nil {
		return nil, false, err
	}
	var names []string
	for w := range b {
		if _, ok := h[w]; ok {
			names = append(names, w)
		}
	}
	if len(names) == 0 {
		return nil, false, fmt.Errorf("no workload has runs on both sides")
	}
	sort.Strings(names)
	lines = append(lines, fmt.Sprintf("%-8s %-16s %8s %10s %10s %10s   %10s %10s %10s  %s",
		"workload", "metric", "bound", "base q1", "median", "q3", "head q1", "median", "q3", "verdict"))
	for _, w := range names {
		if b[w].fp != h[w].fp {
			return nil, false, fmt.Errorf("fingerprints of %s differ; the runs are not comparable:\n  base %s\n  head %s", w, b[w].fp, h[w].fp)
		}
		for _, bd := range bounds {
			bv, hv := b[w].vals[bd.Name], h[w].vals[bd.Name]
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v := verdict(bd, bv, hv)
			if v == "worse" {
				worse = true
			}
			bq1, bmed, bq3 := quartiles(bv)
			hq1, hmed, hq3 := quartiles(hv)
			lines = append(lines, fmt.Sprintf("%-8s %-16s %8.2f %10.4g %10.4g %10.4g   %10.4g %10.4g %10.4g  %s",
				w, bd.Name, bd.Bound, bq1, bmed, bq3, hq1, hmed, hq3, v))
		}
	}
	return lines, worse, nil
}
