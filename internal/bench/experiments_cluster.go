package bench

import (
	"fmt"
	"time"

	"vxq/internal/baselines/mongosim"
	"vxq/internal/cluster"
	"vxq/internal/core"
	"vxq/internal/hyracks"
	"vxq/internal/item"
	"vxq/internal/runtime"
	"vxq/internal/simsched"
)

// Multi-core and multi-node experiments (§5.3 speed-up, §5.4 cluster). The
// engine runs for real on every configuration; the staged executor measures
// each fragment-partition's single-core work and the simsched model
// schedules it on the modeled cluster (4 cores/node, like the paper's
// hardware). See DESIGN.md §4 for why this substitution preserves the
// relevant behaviour.

func init() {
	register(Experiment{
		ID:    "fig17",
		Paper: "Figure 17",
		Title: "Single-node speed-up: 1/2/4 partitions scale, 8 (hyperthreads) does not",
		Run:   runFig17,
	})
	register(Experiment{
		ID:    "fig20",
		Paper: "Figure 20",
		Title: "Cluster speed-up, 1-9 nodes, fixed dataset, all queries",
		Run:   runFig20,
	})
	register(Experiment{
		ID:    "fig21",
		Paper: "Figure 21",
		Title: "Cluster scale-up, fixed per-node dataset, all queries",
		Run:   runFig21,
	})
	register(Experiment{
		ID:    "fig22",
		Paper: "Figure 22",
		Title: "VXQuery vs AsterixDB cluster speed-up (Q0b, Q2)",
		Run:   runFig22,
	})
	register(Experiment{
		ID:    "fig23",
		Paper: "Figure 23",
		Title: "VXQuery vs AsterixDB cluster scale-up (Q0b, Q2)",
		Run:   runFig23,
	})
	register(Experiment{
		ID:    "fig24",
		Paper: "Figure 24",
		Title: "VXQuery vs MongoDB cluster speed-up (Q0b, Q2)",
		Run:   runFig24,
	})
	register(Experiment{
		ID:    "fig25",
		Paper: "Figure 25",
		Title: "VXQuery vs MongoDB cluster scale-up (Q0b, Q2)",
		Run:   runFig25,
	})
}

func runFig17(s Settings) ([]*Table, error) {
	src, totalBytes, err := sensorSource(defaultDataset(s))
	if err != nil {
		return nil, err
	}
	model := simsched.DefaultModel()
	t := &Table{
		Title: fmt.Sprintf("Single-node speed-up over partitions (dataset %s MB, 4 modeled cores)", mb(totalBytes)),
		Paper: "Figure 17: time drops ~linearly to 4 partitions; 8 hyperthreaded partitions give no improvement (slightly worse)",
		Header: []string{"query", "1 part (ms)", "2 parts (ms)", "4 parts (ms)", "8 parts (ms)",
			"speedup@4", "8 vs 4"},
	}
	for _, q := range Queries {
		var walls []time.Duration
		for _, parts := range []int{1, 2, 4, 8} {
			c, err := core.CompileQuery(q.Text, core.Options{Rules: core.AllRules(), Partitions: parts})
			if err != nil {
				return nil, err
			}
			res, _, err := measured(c.Job, src)
			if err != nil {
				return nil, err
			}
			wall, err := model.JobWall(c.Job, res, 1)
			if err != nil {
				return nil, err
			}
			walls = append(walls, wall)
		}
		t.Rows = append(t.Rows, []string{
			q.Name, ms(walls[0]), ms(walls[1]), ms(walls[2]), ms(walls[3]),
			ratio(walls[0], walls[2]), ratio(walls[3], walls[2]),
		})
	}
	return []*Table{t}, nil
}

var clusterNodeCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}

// clusterWall runs a query for a given node count and returns the modeled
// wall time.
func clusterWall(query string, nodes int, src runtime.Source) (time.Duration, error) {
	ex, err := cluster.Run(query, core.AllRules(), cluster.DefaultConfig(nodes), src)
	if err != nil {
		return 0, err
	}
	return ex.SimulatedWall, nil
}

func runFig20(s Settings) ([]*Table, error) {
	// Fixed dataset (the paper's 803 GB), split over the nodes in use.
	cfg := defaultDataset(s)
	cfg.Files = s.files(36) // divisible by many node counts
	src, totalBytes, err := sensorSource(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Cluster speed-up, fixed dataset %s MB (stands in for the paper's 803 GB)", mb(totalBytes)),
		Paper:  "Figure 20: speed-up proportional to node count for every query; Q2 slowest (self-join reads the data twice)",
		Header: append([]string{"query"}, nodeHeader()...),
	}
	for _, q := range Queries {
		row := []string{q.Name}
		for _, nodes := range clusterNodeCounts {
			wall, err := clusterWall(q.Text, nodes, src)
			if err != nil {
				return nil, fmt.Errorf("%s nodes=%d: %w", q.Name, nodes, err)
			}
			row = append(row, ms(wall))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

func runFig21(s Settings) ([]*Table, error) {
	// Per-node dataset fixed (the paper's 88 GB/node): data grows with the
	// cluster; times should stay roughly flat.
	base := defaultDataset(s)
	perNodeFiles := s.files(8)
	t := &Table{
		Title:  "Cluster scale-up, fixed per-node dataset (stands in for the paper's 88 GB/node)",
		Paper:  "Figure 21: execution time remains roughly constant as nodes and data grow together",
		Header: append([]string{"query"}, nodeHeader()...),
	}
	for _, q := range Queries {
		row := []string{q.Name}
		for _, nodes := range clusterNodeCounts {
			cfg := base
			cfg.Files = perNodeFiles * nodes
			src, _, err := sensorSource(cfg)
			if err != nil {
				return nil, err
			}
			wall, err := clusterWall(q.Text, nodes, src)
			if err != nil {
				return nil, fmt.Errorf("%s nodes=%d: %w", q.Name, nodes, err)
			}
			row = append(row, ms(wall))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

func nodeHeader() []string {
	out := make([]string, len(clusterNodeCounts))
	for i, n := range clusterNodeCounts {
		out[i] = fmt.Sprintf("%dn (ms)", n)
	}
	return out
}

// asterixClusterWall models the AsterixDB execution (same engine, no
// projection pushdown) on the cluster.
func asterixClusterWall(query string, nodes int, src runtime.Source) (time.Duration, error) {
	rules := core.AllRules()
	rules.NoProjectionPushdown = true
	cfg := cluster.DefaultConfig(nodes)
	c, err := core.CompileQuery(query, core.Options{Rules: rules, Partitions: cfg.TotalPartitions()})
	if err != nil {
		return 0, err
	}
	res, err := hyracks.RunStaged(c.Job, &hyracks.Env{Source: src})
	if err != nil {
		return 0, err
	}
	return cfg.Model.JobWall(c.Job, res, nodes)
}

func vsAsterix(s Settings, scaleup bool, title, paper string) ([]*Table, error) {
	var tables []*Table
	for _, q := range []struct{ Name, Text string }{{"Q0b", QueryQ0b}, {"Q2", QueryQ2}} {
		t := &Table{
			Title:  fmt.Sprintf("%s — %s", title, q.Name),
			Paper:  paper,
			Header: []string{"nodes", "VXQuery (ms)", "AsterixDB (ms)", "AsterixDB/VXQuery"},
		}
		for _, nodes := range []int{1, 3, 5, 7, 9} {
			cfg := defaultDataset(s)
			if scaleup {
				cfg.Files = s.files(6) * nodes
			} else {
				cfg.Files = s.files(36)
			}
			src, _, err := sensorSource(cfg)
			if err != nil {
				return nil, err
			}
			vw, err := clusterWall(q.Text, nodes, src)
			if err != nil {
				return nil, err
			}
			aw, err := asterixClusterWall(q.Text, nodes, src)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", nodes), ms(vw), ms(aw), ratio(aw, vw),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig22(s Settings) ([]*Table, error) {
	return vsAsterix(s, false,
		"VXQuery vs AsterixDB speed-up (fixed dataset)",
		"Figure 22: VXQuery faster at every node count; the gap is the missing JSONiq pipelining rules")
}

func runFig23(s Settings) ([]*Table, error) {
	return vsAsterix(s, true,
		"VXQuery vs AsterixDB scale-up (fixed per-node dataset)",
		"Figure 23: both roughly flat; VXQuery consistently faster")
}

// mongoClusterWall models MongoDB's cluster execution: the measured
// single-thread query work is embarrassingly parallel over documents, so it
// is spread over the cluster's cores like one big stage.
func mongoClusterWall(st *mongosim.Store, queryTime time.Duration, nodes int, model simsched.Model) time.Duration {
	parts := nodes * model.CoresPerNode
	works := make([]time.Duration, parts)
	for i := range works {
		works[i] = queryTime / time.Duration(parts)
	}
	perNode := make([][]time.Duration, nodes)
	for p, node := range simsched.Placement(parts, nodes) {
		perNode[node] = append(perNode[node], works[p])
	}
	return model.StageWall(perNode) + model.StartupPerJob
}

func dec25Pred(d item.DateTime) bool {
	return d.Year >= 2003 && d.Month == 12 && d.Day == 25
}

// mongoTimes measures MongoDB's single-thread query work for Q0b and Q2
// over an already-loaded store. The Q2 path includes the unwind+project
// workaround the paper describes.
func mongoTimes(st *mongosim.Store) (q0b, q2 time.Duration, err error) {
	start := time.Now()
	if _, err = st.SelectDates(dec25Pred); err != nil {
		return 0, 0, err
	}
	q0b = time.Since(start)
	start = time.Now()
	if _, err = st.UnwindProjectJoin(); err != nil {
		return 0, 0, err
	}
	q2 = time.Since(start)
	return q0b, q2, nil
}

func vsMongo(s Settings, scaleup bool, title, paper string) ([]*Table, error) {
	model := simsched.DefaultModel()
	tq0b := &Table{
		Title:  title + " — Q0b",
		Paper:  paper + " | Q0b: MongoDB competitive/faster on selections (compressed storage)",
		Header: []string{"nodes", "VXQuery (ms)", "MongoDB (ms)"},
	}
	tq2 := &Table{
		Title:  title + " — Q2",
		Paper:  paper + " | Q2: VXQuery faster; MongoDB needs the unwind workaround (16 MB limit)",
		Header: []string{"nodes", "VXQuery (ms)", "MongoDB (ms)"},
	}
	for _, nodes := range []int{1, 3, 5, 7, 9} {
		cfg := defaultDataset(s)
		if scaleup {
			cfg.Files = s.files(6) * nodes
		} else {
			cfg.Files = s.files(36)
		}
		src, _, err := sensorSource(cfg)
		if err != nil {
			return nil, err
		}
		vq0b, err := clusterWall(QueryQ0b, nodes, src)
		if err != nil {
			return nil, err
		}
		vq2, err := clusterWall(QueryQ2, nodes, src)
		if err != nil {
			return nil, err
		}
		st, err := mongosim.Load(src, "/sensors")
		if err != nil {
			return nil, err
		}
		mq0b, mq2, err := mongoTimes(st)
		if err != nil {
			return nil, err
		}
		tq0b.Rows = append(tq0b.Rows, []string{fmt.Sprintf("%d", nodes),
			ms(vq0b), ms(mongoClusterWall(st, mq0b, nodes, model))})
		tq2.Rows = append(tq2.Rows, []string{fmt.Sprintf("%d", nodes),
			ms(vq2), ms(mongoClusterWall(st, mq2, nodes, model))})
	}
	return []*Table{tq0b, tq2}, nil
}

func runFig24(s Settings) ([]*Table, error) {
	return vsMongo(s, false, "VXQuery vs MongoDB speed-up (fixed dataset)", "Figure 24")
}

func runFig25(s Settings) ([]*Table, error) {
	return vsMongo(s, true, "VXQuery vs MongoDB scale-up (fixed per-node dataset)", "Figure 25")
}
