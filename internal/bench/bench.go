// Package bench implements the experiment harness that regenerates the
// paper's single-node evaluation (§5.3) on the real engine: each experiment
// builds its workload with the dataset generator, times the engine at a
// laptop scale that preserves the paper's proportions, and prints the same
// rows/series the paper reports. Figures that need another system or a
// multi-node cluster are not reproduced (EXPERIMENTS.md says why for each).
//
// Scaling: the paper's single-node datasets are 100 MB to 1 GB. The default
// Settings shrink sizes so the full suite runs in seconds; Settings.Factor
// scales them back up. EXPERIMENTS.md records the paper-reported values next
// to measured ones. Shape fidelity (rough factors, where a curve flattens) is
// the goal — absolute times are hardware-dependent (see DESIGN.md §4).
package bench

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"vxq/internal/core"
	"vxq/internal/frame"
	"vxq/internal/gen"
	"vxq/internal/hyracks"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// The paper's evaluation queries (§5.2, Listings 7-11).
const (
	QueryQ0 = `
for $r in collection("/sensors")("root")()("results")()
let $datetime := dateTime(data($r("date")))
where year-from-dateTime($datetime) ge 2003
  and month-from-dateTime($datetime) eq 12
  and day-from-dateTime($datetime) eq 25
return $r`

	QueryQ0b = `
for $r in collection("/sensors")("root")()("results")()("date")
let $datetime := dateTime(data($r))
where year-from-dateTime($datetime) ge 2003
  and month-from-dateTime($datetime) eq 12
  and day-from-dateTime($datetime) eq 25
return $r`

	QueryQ1 = `
for $r in collection("/sensors")("root")()("results")()
where $r("dataType") eq "TMIN"
group by $date := $r("date")
return count($r("station"))`

	QueryQ1b = `
for $r in collection("/sensors")("root")()("results")()
where $r("dataType") eq "TMIN"
group by $date := $r("date")
return count(for $i in $r return $i("station"))`

	QueryQ2 = `
avg(
  for $r_min in collection("/sensors")("root")()("results")()
  for $r_max in collection("/sensors")("root")()("results")()
  where $r_min("station") eq $r_max("station")
    and $r_min("date") eq $r_max("date")
    and $r_min("dataType") eq "TMIN"
    and $r_max("dataType") eq "TMAX"
  return $r_max("value") - $r_min("value")
) div 10`
)

// DatePathExpr is the measurement-date path in the engine's BuildIndex
// syntax — the path the date-range pruning workloads index.
const DatePathExpr = `("root")()("results")()("date")`

// Queries maps the paper's query names to their text, in evaluation order.
var Queries = []struct{ Name, Text string }{
	{"Q0", QueryQ0},
	{"Q0b", QueryQ0b},
	{"Q1", QueryQ1},
	{"Q1b", QueryQ1b},
	{"Q2", QueryQ2},
}

// Settings scales the experiment workloads.
type Settings struct {
	// Factor multiplies the default dataset sizes (1.0 = quick defaults).
	Factor float64
}

func (s Settings) factor() float64 {
	if s.Factor <= 0 {
		return 1
	}
	return s.Factor
}

// files computes a scaled file count, at least 1.
func (s Settings) files(base int) int {
	n := int(float64(base) * s.factor())
	if n < 1 {
		n = 1
	}
	return n
}

// Table is one generated result table/series, mirroring a paper table or
// one panel of a paper figure.
type Table struct {
	Title  string
	Paper  string // what the paper reports for this table/figure
	Header []string
	Rows   [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Paper)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// ID is the short name used by -run (fig13 ... fig18a, tab3).
	ID string
	// Paper identifies the table/figure in the paper.
	Paper string
	// Title describes what the experiment shows.
	Title string
	// Run executes the experiment.
	Run func(s Settings) ([]*Table, error)
}

// registry of experiments, populated by the experiment files' init
// functions.
var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared workload helpers -------------------------------------------------

// sensorSource generates an in-memory sensor collection.
func sensorSource(cfg gen.Config) (runtime.Source, int64, error) {
	docs, total, err := cfg.InMemory()
	if err != nil {
		return nil, 0, err
	}
	return &runtime.MemSource{
		Collections: map[string]map[string][]byte{"/sensors": docs},
	}, total, nil
}

// defaultDataset is the harness's base workload shape.
func defaultDataset(s Settings) gen.Config {
	cfg := gen.Default()
	cfg.Files = s.files(12)
	cfg.RecordsPerFile = 24
	cfg.MeasurementsPerArray = 30
	return cfg
}

// ablationDataset is the (smaller) workload for the rule-ablation
// experiments: without the rules the engine intentionally materializes and
// copies whole sequences (that is the point of Figs. 13-16), so the
// unoptimized runs are orders of magnitude slower and the dataset must stay
// small for the harness to finish quickly.
func ablationDataset(s Settings) gen.Config {
	cfg := gen.Default()
	cfg.Files = s.files(6)
	cfg.RecordsPerFile = 8
	cfg.MeasurementsPerArray = 30
	return cfg
}

// runner executes a job: hyracks.RunStaged or hyracks.RunPipelined.
type runner func(*hyracks.Job, *hyracks.Env) (*hyracks.Result, error)

// measured runs a compiled job with run and returns the result plus the
// wall-clock time of the run.
func measured(run runner, job *hyracks.Job, src runtime.Source) (*hyracks.Result, time.Duration, error) {
	env := &hyracks.Env{Source: src, Accountant: frame.NewAccountant(0)}
	start := time.Now()
	res, err := run(job, env)
	elapsed := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	return res, elapsed, nil
}

// runQuery compiles and times one query execution with the staged executor.
func runQuery(query string, rules core.RuleConfig, partitions int, src runtime.Source) (*hyracks.Result, time.Duration, error) {
	c, err := core.CompileQuery(query, core.Options{Rules: rules, Partitions: partitions})
	if err != nil {
		return nil, 0, err
	}
	return measured(hyracks.RunStaged, c.Job, src)
}

// timedQuery compiles query once, runs it `runs` times with run and returns
// the fastest wall clock (less noise at small scales) and the answer of the
// first run.
func timedQuery(run runner, runs int, query string, opts core.Options, src runtime.Source) (time.Duration, []byte, error) {
	c, err := core.CompileQuery(query, opts)
	if err != nil {
		return 0, nil, err
	}
	var best time.Duration
	var ans []byte
	for i := 0; i < runs; i++ {
		res, d, err := measured(run, c.Job, src)
		if err != nil {
			return 0, nil, err
		}
		if i == 0 {
			ans = answer(res)
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, ans, nil
}

// answer is a result's rows in SortRows order, each field EncodeSeq-encoded:
// two executions answer alike exactly when their answers are equal bytes.
func answer(res *hyracks.Result) []byte {
	res.SortRows()
	var b []byte
	for _, row := range res.Rows {
		for _, f := range row {
			b = item.EncodeSeq(b, f)
		}
	}
	return b
}

// sameAnswer fails unless got equals want, the answer of the first
// configuration an experiment timed for the same query and data: two
// configurations that answer differently are a bug, not a speed-up.
func sameAnswer(want, got []byte) error {
	if !bytes.Equal(want, got) {
		return fmt.Errorf("answer differs from the first configuration's (%d vs %d encoded bytes)", len(got), len(want))
	}
	return nil
}

// ms formats a duration in milliseconds with 2 decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

// ratio formats a/b.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// mb formats bytes as MB with 2 decimals.
func mb(n int64) string { return fmt.Sprintf("%.2f", float64(n)/(1<<20)) }
