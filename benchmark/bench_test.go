package main

import (
	"math"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the program's registry must not drift apart.
func TestSpecMatchesRegistry(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the registry %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s := spec.Workloads[i]; s.Name != w.Name || s.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the registry %q (%q)", i, s.Name, s.Why, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is not a valid name", w.Name)
		}
		if _, ok := datasets[w.Dataset]; !ok {
			t.Errorf("workload %s names unknown dataset %q", w.Name, w.Dataset)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the registry %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the registry %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(w.Name) || seen[w.Name] {
				t.Errorf("%s metric name %q is invalid or repeated", kind, w.Name)
			}
			seen[w.Name] = true
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// Every workload at tiny scale: all metrics present, answers right, the
// ladder sums to the wall clock, nothing spills that should not.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			spanPath := filepath.Join(dir, "spans.json")
			d, err := runWorkload(w, scales["tiny"], 1, 0, 2, dir, spanPath)
			if err != nil {
				t.Fatal(err)
			}
			if d.Bytes > 256<<10 {
				t.Errorf("tiny dataset is %d bytes, want <= 256 KiB", d.Bytes)
			}
			r := d.Result
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d: %s", r.Correct, r.Failed, r.Attempted, d.Error)
			}
			value := func(name string) float64 { return r.Metrics[name].Value }
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, m := range defs {
					if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: emitted=%v unit=%q, want unit %q", m.Name, ok, v.Unit, m.Unit)
					}
				}
			}
			for _, m := range endToEnd {
				if value(m.Name) <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, value(m.Name))
				}
			}

			parts := []string{"runtime.read_s", "jsonparse.skip_s", "jsonparse.build_s", "item.encode_s", "frame.append_s", "hyracks.rest_s"}
			var sum float64
			for _, p := range parts {
				if value(p) < 0 {
					t.Errorf("ladder self time %s = %v: rungs are not monotone", p, value(p))
				}
				sum += value(p)
			}
			if whole := value("vxq.query_1p_s"); math.Abs(sum-whole) > 1e-9*whole {
				t.Errorf("ladder self times sum to %v, vxq.query_1p_s is %v", sum, whole)
			}

			if w.OpMemoryBudget == 0 {
				for _, m := range []string{"spill.bytes_per_input_byte", "spill.partitions", "spill.waves"} {
					if value(m) != 0 {
						t.Errorf("%s = %v on a workload without a budget", m, value(m))
					}
				}
			} else if value("spill.write_mb_per_s") <= 0 || value("spill.read_mb_per_s") <= 0 {
				t.Errorf("spill Writer/Reader passes reported no rate")
			}
			if w.Sidecars {
				if value("index.files_pruned_frac") <= 0 || value("index.sidecar_load_s") <= 0 {
					t.Errorf("sidecar workload pruned no file or loaded no sidecar")
				}
				if value("index.cold_index_builds") != 0 {
					t.Errorf("sidecar-warm scan ran %v cold index builds", value("index.cold_index_builds"))
				}
			}

			var sf spanFile
			if err := readJSON(spanPath, &sf); err != nil {
				t.Fatal(err)
			}
			names := map[string]bool{}
			for i, s := range sf.Spans {
				names[s.Name] = true
				if s.ID != i || s.EndNS < s.StartNS || s.SelfNS < 0 || s.SelfNS > s.EndNS-s.StartNS || s.Parent >= i || s.Workload != w.Name {
					t.Errorf("bad span %+v", s)
				}
			}
			for _, n := range []string{"setup", "setup.generate", "setup.write", "core.compile", "vxq.query_1p", "vxq.query_1p_profiled",
				"engine.query", "ladder", "ladder.R1", "ladder.R5", "jsonparse.boundary_seq", "jsonparse.boundary_par"} {
				if !names[n] {
					t.Errorf("no %q span recorded", n)
				}
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, StartNS: 0, EndNS: 100, Parent: -1},
		{ID: 1, StartNS: 10, EndNS: 40, Parent: 0},
		{ID: 2, StartNS: 30, EndNS: 60, Parent: 0},  // overlaps span 1
		{ID: 3, StartNS: 90, EndNS: 120, Parent: 0}, // runs past its parent
		{ID: 4, StartNS: 15, EndNS: 20, Parent: 1},  // a grandchild covers nothing of span 0
	}
	if got := selfNS(spans, 0); got != 100-50-10 {
		t.Errorf("self time of the parent = %d, want 40", got)
	}
	if got := selfNS(spans, 1); got != 25 {
		t.Errorf("self time of span 1 = %d, want 25", got)
	}
}

// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] in Python.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
	if got := iqrFrac(v); got != 1 {
		t.Errorf("iqrFrac = %v, want 1", got)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "query_s_p50", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "mb_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		a, b   float64
		m      specMetric
		spread float64
		want   string
	}{
		{1, 1.05, lower, 0.02, "ok"},
		{1, 1.2, lower, 0.02, "regressed"},
		{1, 0.5, lower, 0.02, "ok"},
		{100, 85, higher, 0.02, "regressed"},
		{100, 120, higher, 0.02, "ok"},
		{1, 1.2, lower, 0.3, "unresolved"},
		{1, 1.0, lower, 0.3, "unresolved"},
		{1, 1.2, lower, spreadUnknown, "unresolved"},
	} {
		if got, _ := judge(c.a, c.b, c.m, c.spread); got != c.want {
			t.Errorf("judge(%v, %v, %s, spread %v) = %s, want %s", c.a, c.b, c.m.Name, c.spread, got, c.want)
		}
	}
}

// The oracle must reject what is wrong, not only accept what is right.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	ms := []measurement{
		{Date: "2003-12-25T00:00", DataType: "TMIN", Station: "S1", Value: -10},
		{Date: "2003-12-25T00:00", DataType: "TMAX", Station: "S1", Value: 50},
		{Date: "2002-12-25T00:00", DataType: "TMIN", Station: "S1", Value: 0},
		{Date: "2004-06-03T00:00", DataType: "TMIN", Station: "S2", Value: 7},
	}
	q0, err := expected(answerQ0, ms, "", "")
	if err != nil {
		t.Fatal(err)
	}
	good := []string{
		`{"value":50,"station":"S1","dataType":"TMAX","date":"2003-12-25T00:00"}`, // key order is free
		`{"date":"2003-12-25T00:00","dataType":"TMIN","station":"S1","value":-10}`,
	}
	if err := q0.check(good); err != nil {
		t.Errorf("right Q0 answer rejected: %v", err)
	}
	if q0.check(good[:1]) == nil || q0.check([]string{good[0], good[0]}) == nil {
		t.Errorf("wrong Q0 answers accepted")
	}
	q1, _ := expected(answerQ1, ms, "", "")
	if err := q1.check([]string{"1", "1", "1"}); err != nil {
		t.Errorf("right Q1 answer rejected: %v", err)
	}
	if q1.check([]string{"1", "2", "1"}) == nil {
		t.Errorf("wrong Q1 answer accepted")
	}
	q2, _ := expected(answerQ2, ms, "", "")
	if err := q2.check([]string{"6.000000000001"}); err != nil {
		t.Errorf("Q2 answer within tolerance rejected: %v", err)
	}
	if q2.check([]string{"6.001"}) == nil {
		t.Errorf("Q2 answer outside tolerance accepted")
	}
	rng, _ := expected(answerDateRange, ms, "2004-06-01", "2004-07-01")
	if err := rng.check([]string{`"2004-06-03T00:00"`}); err != nil {
		t.Errorf("right range answer rejected: %v", err)
	}
}
