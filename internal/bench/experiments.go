package bench

import (
	"fmt"
	goruntime "runtime"
	"time"

	"vxq/internal/core"
	"vxq/internal/gen"
	"vxq/internal/hyracks"
)

// Single-node experiments (§5.3), all timed on the real engine: the rule
// ablations of Figs. 13-16 (one core, the rule categories enabled one after
// another), the partition speed-up of Fig. 17, and VXQuery's own series of
// Fig. 18a and Table 3.

func init() {
	register(Experiment{
		ID:    "fig13",
		Paper: "Figure 13",
		Title: "Execution time before and after the Path Expression Rules (all queries, 1 node, 1 core)",
		Run:   runFig13,
	})
	register(Experiment{
		ID:    "fig14",
		Paper: "Figure 14",
		Title: "Execution time before and after the Pipelining Rules (log scale in the paper)",
		Run:   runFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Paper: "Figure 15",
		Title: "Execution time before and after the Group-by Rules",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "fig16",
		Paper: "Figure 16",
		Title: "Q1 execution time for growing collection sizes, before and after all rewrite rules",
		Run:   runFig16,
	})
	register(Experiment{
		ID:    "fig17",
		Paper: "Figure 17",
		Title: "Single-node speed-up: pipelined wall clock at 1/2/4/8 partitions",
		Run:   runFig17,
	})
	register(Experiment{
		ID:    "fig18a",
		Paper: "Figure 18a",
		Title: "Q0b query time vs measurements/array: VXQuery is independent of the document layout",
		Run:   runFig18a,
	})
	register(Experiment{
		ID:    "tab3",
		Paper: "Table 3",
		Title: "Memory: VXQuery keeps only query-relevant data, flat in the input size",
		Run:   runTab3,
	})
}

// ruleSweep measures every query under two rule configurations.
func ruleSweep(s Settings, title, paper string, before, after core.RuleConfig, beforeName, afterName string) ([]*Table, error) {
	src, totalBytes, err := sensorSource(ablationDataset(s))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("%s (collection %s MB)", title, mb(totalBytes)),
		Paper:  paper,
		Header: []string{"query", beforeName + " (ms)", afterName + " (ms)", "speedup"},
	}
	for _, q := range Queries {
		tb, want, err := timedQuery(hyracks.RunStaged, 2, q.Text, core.Options{Rules: before, Partitions: 1}, src)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", q.Name, beforeName, err)
		}
		ta, got, err := timedQuery(hyracks.RunStaged, 2, q.Text, core.Options{Rules: after, Partitions: 1}, src)
		if err == nil {
			err = sameAnswer(want, got)
		}
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", q.Name, afterName, err)
		}
		t.Rows = append(t.Rows, []string{q.Name, ms(tb), ms(ta), ratio(tb, ta)})
	}
	return []*Table{t}, nil
}

func runFig13(s Settings) ([]*Table, error) {
	return ruleSweep(s,
		"Before/after path expression rules", "all queries improve: large sequences of objects are avoided",
		core.RuleConfig{},
		core.RuleConfig{PathRules: true},
		"no rules", "path rules")
}

func runFig14(s Settings) ([]*Table, error) {
	return ruleSweep(s,
		"Before/after pipelining rules", "~2 orders of magnitude improvement; Q0b best (smallest DATASCAN argument)",
		core.RuleConfig{PathRules: true},
		core.RuleConfig{PathRules: true, PipeliningRules: true},
		"path only", "path+pipelining")
}

func runFig15(s Settings) ([]*Table, error) {
	return ruleSweep(s,
		"Before/after group-by rules", "Q1 and Q1b improve (count pushed into group-by); Q0/Q0b/Q2 unchanged",
		core.RuleConfig{PathRules: true, PipeliningRules: true},
		core.AllRules(),
		"path+pipelining", "all rules")
}

func runFig16(s Settings) ([]*Table, error) {
	t := &Table{
		Title:  "Q1 execution time vs collection size, before/after all rules",
		Paper:  "Figure 16: time scales proportionally with size; huge improvement from the rules at every size",
		Header: []string{"size (MB)", "no rules (ms)", "all rules (ms)", "speedup"},
	}
	base := ablationDataset(s)
	for _, mult := range []int{1, 2, 4} {
		cfg := base
		cfg.Files = base.Files * mult
		src, totalBytes, err := sensorSource(cfg)
		if err != nil {
			return nil, err
		}
		tb, want, err := timedQuery(hyracks.RunStaged, 1, QueryQ1, core.Options{Rules: core.RuleConfig{}, Partitions: 1}, src)
		if err != nil {
			return nil, err
		}
		ta, got, err := timedQuery(hyracks.RunStaged, 1, QueryQ1, core.Options{Rules: core.AllRules(), Partitions: 1}, src)
		if err == nil {
			err = sameAnswer(want, got)
		}
		if err != nil {
			return nil, fmt.Errorf("%s MB/all rules: %w", mb(totalBytes), err)
		}
		t.Rows = append(t.Rows, []string{mb(totalBytes), ms(tb), ms(ta), ratio(tb, ta)})
	}
	// Sanity note: proportional scaling of the optimized time.
	if len(t.Rows) == 3 {
		t.Paper += fmt.Sprintf(" | measured optimized-time growth x1->x4: %s vs %s ms",
			t.Rows[0][2], t.Rows[2][2])
	}
	return []*Table{t}, nil
}

// fig17Partitions is the x-axis of Fig. 17: the paper's node has 4 cores,
// so 8 partitions run on hyperthreads.
var fig17Partitions = []int{1, 2, 4, 8}

// runFig17 times every query with the pipelined scheduler (one goroutine
// per fragment-partition task) at each partition count. This is the host's
// own wall clock: partition counts above its CPU count are oversubscribed,
// the analogue of the paper's hyperthreaded 8.
func runFig17(s Settings) ([]*Table, error) {
	src, totalBytes, err := sensorSource(defaultDataset(s))
	if err != nil {
		return nil, err
	}
	cpus := goruntime.NumCPU()
	t := &Table{
		Title: fmt.Sprintf("Single-node speed-up over partitions, pipelined wall clock (dataset %s MB, %d CPUs)", mb(totalBytes), cpus),
		Paper: "Figure 17: time drops ~linearly to 4 partitions (the node's cores); 8 hyperthreaded partitions give no improvement (slightly worse)",
	}
	t.Header = []string{fmt.Sprintf("query (NumCPU=%d)", cpus)}
	for _, p := range fig17Partitions {
		h := fmt.Sprintf("%d parts (ms)", p)
		switch {
		case p == 1:
			h = "1 part (ms)"
		case p > cpus:
			h = fmt.Sprintf("%d parts, oversubscribed (ms)", p)
		}
		t.Header = append(t.Header, h)
	}
	for _, p := range fig17Partitions[1:] {
		t.Header = append(t.Header, fmt.Sprintf("speedup@%d", p))
	}
	for _, q := range Queries {
		var walls []time.Duration
		var want []byte
		for i, p := range fig17Partitions {
			wall, got, err := timedQuery(hyracks.RunPipelined, 3, q.Text, core.Options{Rules: core.AllRules(), Partitions: p}, src)
			if err == nil && i > 0 {
				err = sameAnswer(want, got)
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%d partitions: %w", q.Name, p, err)
			}
			if i == 0 {
				want = got
			}
			walls = append(walls, wall)
		}
		row := []string{q.Name}
		for _, w := range walls {
			row = append(row, ms(w))
		}
		for _, w := range walls[1:] {
			row = append(row, ratio(walls[0], w))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// measurementsSweep is the x-axis of Fig. 18a.
var measurementsSweep = []int{30, 22, 15, 7, 1}

// sweepConfig builds a dataset with a given measurements/array, holding the
// total measurement count (and so the logical data volume) constant.
func sweepConfig(s Settings, measPerArray int) gen.Config {
	cfg := gen.Default()
	cfg.MeasurementsPerArray = measPerArray
	// Keep total measurements constant: fewer per array -> more records.
	totalMeas := s.files(8) * 12 * 30
	cfg.Files = s.files(8)
	cfg.RecordsPerFile = totalMeas / cfg.Files / measPerArray
	if cfg.RecordsPerFile < 1 {
		cfg.RecordsPerFile = 1
	}
	return cfg
}

func runFig18a(s Settings) ([]*Table, error) {
	t := &Table{
		Title:  "Q0b execution time vs measurements per results array",
		Paper:  "Figure 18a (88 GB): VXQuery independent of layout (the MongoDB and AsterixDB series are not reproduced)",
		Header: []string{"meas/array", "collection (MB)", "VXQuery (ms)"},
	}
	for _, m := range measurementsSweep {
		src, raw, err := sensorSource(sweepConfig(s, m))
		if err != nil {
			return nil, err
		}
		vt, _, err := timedQuery(hyracks.RunStaged, 1, QueryQ0b, core.Options{Rules: core.AllRules(), Partitions: 1}, src)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", m), mb(raw), ms(vt)})
	}
	return []*Table{t}, nil
}

// tab3Sizes are the Table 3 data sizes, as multiples of the base dataset
// (the paper uses 400 MB, 800 MB, 1000 MB).
var tab3Sizes = []struct {
	name string
	mult float64
}{
	{"400", 1.0},
	{"800", 2.0},
	{"1000", 2.5},
}

func runTab3(s Settings) ([]*Table, error) {
	t := &Table{
		Title:  "Memory consumption of VXQuery, query Q1",
		Paper:  "Table 3: VXQuery ~1700 MB flat for 400-1000 MB inputs (the SparkSQL column, 5650-7953 MB, is not reproduced)",
		Header: []string{"size (paper MB)", "raw input (MB)", "VXQuery peak (MB)"},
	}
	c, err := core.CompileQuery(QueryQ1, core.Options{Rules: core.AllRules(), Partitions: 1})
	if err != nil {
		return nil, err
	}
	for _, sz := range tab3Sizes {
		cfg := defaultDataset(s)
		cfg.Files = max(1, int(float64(cfg.Files)*sz.mult))
		src, raw, err := sensorSource(cfg)
		if err != nil {
			return nil, err
		}
		res, _, err := measured(hyracks.RunStaged, c.Job, src)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{sz.name, mb(raw), mb(res.PeakMemory)})
	}
	return []*Table{t}, nil
}
