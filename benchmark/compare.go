package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json this program reads.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func loadSpec(path string) (*benchmarkSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var err error
	for _, c := range candidates {
		var s benchmarkSpec
		if err = readJSON(c, &s); err == nil {
			return &s, nil
		}
	}
	return nil, err
}

// side is one side of a comparison: the runs of one or more -out files
// (comma-separated), grouped by workload.
type side struct {
	label string
	runs  map[string][]runDetail
}

func loadSide(paths string) (*side, error) {
	s := &side{runs: map[string][]runDetail{}}
	var labels []string
	for _, p := range strings.Split(paths, ",") {
		var f outFile
		if err := readJSON(p, &f); err != nil {
			return nil, err
		}
		for _, r := range f.Runs {
			s.runs[r.Workload] = append(s.runs[r.Workload], r)
		}
		labels = append(labels, fmt.Sprintf("%s (commit %s, seed %d)", p, f.Env.Commit, f.Env.Seed))
	}
	s.label = strings.Join(labels, ", ")
	return s, nil
}

// metric is the side's value of one workload's metric, the median over its
// runs, and the spread of that value: across the runs' values when there are
// at least four (interquartile distance over median), otherwise the widest
// estimate the runs made from their own samples.
func (s *side) metric(workload, name string) (value, spread float64) {
	var vals []float64
	for _, r := range s.runs[workload] {
		vals = append(vals, r.Result.Metrics[name].Value)
		spread = widest(spread, r.Spread[name])
	}
	if len(vals) >= 4 {
		spread = iqrFrac(vals)
	}
	return median(vals), spread
}

// widest is the larger of two spreads; an unknown one makes the result unknown.
func widest(a, b float64) float64 {
	if a == spreadUnknown || b == spreadUnknown {
		return spreadUnknown
	}
	return max(a, b)
}

// compareFiles judges side b against base a: per workload and end-to-end
// metric it prints both values, the ratio with its base, the spread and a
// verdict under the bound BENCHMARK.json fixes. It fails on any breach.
func compareFiles(specPath, pathsA, pathsB string, w io.Writer) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadSide(pathsA)
	if err != nil {
		return err
	}
	b, err := loadSide(pathsB)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(a.runs))
	for n := range a.runs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "base a = %s\n     b = %s\n", a.label, b.label)
	fmt.Fprintf(w, "%-20s %-15s %13s %13s %9s %7s %7s  %s\n", "workload", "metric", "a", "b", "b/a", "spread", "bound", "verdict")
	breaches := 0
	for _, n := range names {
		if len(b.runs[n]) == 0 {
			fmt.Fprintf(w, "%-20s missing from b\n", n)
			breaches++
			continue
		}
		for _, r := range b.runs[n] {
			if r.Result.Failed > 0 {
				fmt.Fprintf(w, "%-20s %d of %d iterations failed in b\n", n, r.Result.Failed, r.Result.Attempted)
				breaches++
			}
		}
		for _, m := range spec.EndToEnd {
			va, sa := a.metric(n, m.Name)
			vb, sb := b.metric(n, m.Name)
			spread := widest(sa, sb)
			verdict, ratio := judge(va, vb, m, spread)
			if verdict == "regressed" {
				breaches++
			}
			fmt.Fprintf(w, "%-20s %-15s %13.6g %13.6g %8.3fx %7s %6.0f%%  %s\n", n, m.Name, va, vb, ratio, percent(spread), 100*m.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d breach(es) of the bounds", breaches)
	}
	return nil
}

// judge reports how b stands against base a under the metric's bound. A
// spread wider than the bound (or unknown, for want of samples) cannot resolve
// a difference of that size, so the verdict is then "unresolved" whichever
// way the values point.
func judge(a, b float64, m specMetric, spread float64) (verdict string, ratio float64) {
	if a == 0 {
		return "unresolved", 0
	}
	ratio = b / a
	worse := ratio - 1
	if m.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case spread > m.Bound || spread == spreadUnknown:
		return "unresolved", ratio
	case worse > m.Bound:
		return "regressed", ratio
	default:
		return "ok", ratio
	}
}
