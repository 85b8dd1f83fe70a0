package bench

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"vxq/internal/core"
	"vxq/internal/item"
)

// TestAllExperimentsRun executes every registered experiment at the quick
// scale and sanity-checks the produced tables.
func TestAllExperimentsRun(t *testing.T) {
	exps := All()
	if len(exps) != 7 {
		t.Fatalf("registered experiments = %d, want 7 (one per reproduced table/figure)", len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(Settings{})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, tbl.Title)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Errorf("%s: row width %d != header width %d", e.ID, len(row), len(tbl.Header))
					}
				}
				s := tbl.String()
				if !strings.Contains(s, tbl.Title) {
					t.Errorf("%s: rendering missing title", e.ID)
				}
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig13"); !ok {
		t.Error("fig13 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown id should not resolve")
	}
}

// TestCrossSystemAgreement checks the engine's Q0b, Q1 and Q2 answers at two
// partitions against a plain encoding/json walk over the same collection,
// which shares no code with the engine.
func TestCrossSystemAgreement(t *testing.T) {
	cfg := defaultDataset(Settings{})
	src, _, err := sensorSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs, _, err := cfg.InMemory()
	if err != nil {
		t.Fatal(err)
	}
	type measurement struct {
		Date, DataType, Station string
		Value                   float64
	}
	var ms []measurement
	for name, b := range docs {
		var doc struct {
			Root []struct{ Results []measurement }
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range doc.Root {
			ms = append(ms, r.Results...)
		}
	}

	// Q0b: dates on Dec 25 of 2003 or later.
	wantDates := 0
	for _, m := range ms {
		d, err := time.Parse("2006-01-02T15:04", m.Date)
		if err != nil {
			t.Fatal(err)
		}
		if d.Year() >= 2003 && d.Month() == time.December && d.Day() == 25 {
			wantDates++
		}
	}
	res, _, err := runQuery(QueryQ0b, core.AllRules(), 2, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != wantDates || wantDates == 0 {
		t.Errorf("Q0b: vxq=%d rows, walk=%d", len(res.Rows), wantDates)
	}

	// Q1: TMIN measurements counted per date.
	groups := map[string]int{}
	for _, m := range ms {
		if m.DataType == "TMIN" {
			groups[m.Date]++
		}
	}
	res, _, err = runQuery(QueryQ1, core.AllRules(), 2, src)
	if err != nil {
		t.Fatal(err)
	}
	var vxqTotal float64
	for _, row := range res.Rows {
		n, err := row[0].One()
		if err != nil {
			t.Fatal(err)
		}
		vxqTotal += float64(n.(item.Number))
	}
	wantTotal := 0
	for _, n := range groups {
		wantTotal += n
	}
	if len(res.Rows) != len(groups) || vxqTotal != float64(wantTotal) || wantTotal == 0 {
		t.Errorf("Q1: vxq groups=%d total=%v; walk groups=%d total=%d",
			len(res.Rows), vxqTotal, len(groups), wantTotal)
	}

	// Q2: average TMAX-TMIN difference over every (station, date) match.
	type key struct{ station, date string }
	mins := map[key][]float64{}
	for _, m := range ms {
		if m.DataType == "TMIN" {
			k := key{m.Station, m.Date}
			mins[k] = append(mins[k], m.Value)
		}
	}
	var sum float64
	pairs := 0
	for _, m := range ms {
		if m.DataType != "TMAX" {
			continue
		}
		for _, lo := range mins[key{m.Station, m.Date}] {
			sum += m.Value - lo
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("walk: Q2 found no TMIN/TMAX pairs")
	}
	wantAvg := sum / float64(pairs) / 10
	res, _, err = runQuery(QueryQ2, core.AllRules(), 2, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("Q2 rows = %d", len(res.Rows))
	}
	q2it, err := res.Rows[0][0].One()
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(q2it.(item.Number)); math.Abs(got-wantAvg) > 1e-9 {
		t.Errorf("Q2: vxq=%v walk=%v", got, wantAvg)
	}
}

// TestPipeliningShapeHolds asserts the headline result at harness scale:
// the pipelining rules must deliver a large speedup (the paper reports ~2
// orders of magnitude; we require at least 3x). The dataset is scaled up
// from the ablation default because frame pooling and scratch reuse shaved
// most of the unoptimized plan's constant per-tuple costs — the remaining
// gap is the asymptotic materialize-vs-stream difference, which needs
// enough data to dominate.
func TestPipeliningShapeHolds(t *testing.T) {
	src, _, err := sensorSource(ablationDataset(Settings{Factor: 8}))
	if err != nil {
		t.Fatal(err)
	}
	_, before, err := runQuery(QueryQ0b, core.RuleConfig{PathRules: true}, 1, src)
	if err != nil {
		t.Fatal(err)
	}
	_, after, err := runQuery(QueryQ0b, core.RuleConfig{PathRules: true, PipeliningRules: true}, 1, src)
	if err != nil {
		t.Fatal(err)
	}
	if float64(before) < 3*float64(after) {
		t.Errorf("pipelining speedup too small: before=%v after=%v", before, after)
	}
}
