package bench

import (
	"errors"
	"fmt"
	"time"

	"vxq/internal/baselines/asterixsim"
	"vxq/internal/baselines/mongosim"
	"vxq/internal/baselines/sparksim"
	"vxq/internal/core"
	"vxq/internal/gen"
)

// Comparison-system experiments (§5.3): Fig. 18 and Table 1 sweep the
// measurements-per-array document layout against MongoDB and AsterixDB;
// Fig. 19 and Tables 2-3 compare with SparkSQL; Table 4 reports MongoDB's
// load times at cluster scale.

func init() {
	register(Experiment{
		ID:    "fig18a",
		Paper: "Figure 18a",
		Title: "Q0b query time vs measurements/array: VXQuery flat, MongoDB best at 30, AsterixDB best at 1",
		Run:   runFig18a,
	})
	register(Experiment{
		ID:    "fig18b",
		Paper: "Figure 18b",
		Title: "Space consumption vs measurements/array: MongoDB compression degrades as documents shrink",
		Run:   runFig18b,
	})
	register(Experiment{
		ID:    "tab1",
		Paper: "Table 1",
		Title: "Loading time for MongoDB and AsterixDB(load) vs measurements/array",
		Run:   runTab1,
	})
	register(Experiment{
		ID:    "fig19",
		Paper: "Figure 19",
		Title: "SparkSQL vs VXQuery Q1 execution time over growing data sizes",
		Run:   runFig19,
	})
	register(Experiment{
		ID:    "tab2",
		Paper: "Table 2",
		Title: "SparkSQL loading time per data size",
		Run:   runTab2,
	})
	register(Experiment{
		ID:    "tab3",
		Paper: "Table 3",
		Title: "Memory: SparkSQL loads everything, VXQuery keeps only query-relevant data",
		Run:   runTab3,
	})
	register(Experiment{
		ID:    "tab4",
		Paper: "Table 4",
		Title: "MongoDB loading time for the two cluster dataset sizes",
		Run:   runTab4,
	})
}

// measurementsSweep is the x-axis of Fig. 18 / Table 1.
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
		Title: "Q0b execution time vs measurements per results array",
		Paper: "Figure 18a (88 GB): VXQuery independent of layout; MongoDB best at 30/array (compression); AsterixDB best at 1/array; AsterixDB(load) beats AsterixDB",
		Header: []string{"meas/array", "VXQuery (ms)", "MongoDB (ms)",
			"AsterixDB (ms)", "AsterixDB(load) (ms)"},
	}
	for _, m := range measurementsSweep {
		src, _, err := sensorSource(sweepConfig(s, m))
		if err != nil {
			return nil, err
		}
		// VXQuery: raw files, no load.
		_, vt, err := runQuery(QueryQ0b, core.AllRules(), 1, src)
		if err != nil {
			return nil, err
		}
		// MongoDB: query over the loaded store.
		st, err := mongosim.Load(src, "/sensors")
		if err != nil {
			return nil, err
		}
		mStart := time.Now()
		if _, err := st.SelectDates(dec25Pred); err != nil {
			return nil, err
		}
		mt := time.Since(mStart)
		// AsterixDB external.
		ext := asterixsim.New(asterixsim.External, src)
		aStart := time.Now()
		if _, err := ext.Run(QueryQ0b, 1); err != nil {
			return nil, err
		}
		at := time.Since(aStart)
		// AsterixDB(load): query time only (load cost in Table 1).
		ld := asterixsim.New(asterixsim.LoadFirst, src)
		if err := ld.Load("/sensors"); err != nil {
			return nil, err
		}
		lStart := time.Now()
		if _, err := ld.Run(QueryQ0b, 1); err != nil {
			return nil, err
		}
		lt := time.Since(lStart)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m), ms(vt), ms(mt), ms(at), ms(lt),
		})
	}
	return []*Table{t}, nil
}

func runFig18b(s Settings) ([]*Table, error) {
	t := &Table{
		Title: "Space consumption vs measurements per results array",
		Paper: "Figure 18b: MongoDB space grows as documents shrink (less compression); VXQuery and AsterixDB flat (no compression)",
		Header: []string{"meas/array", "raw JSON (MB)", "MongoDB (MB)",
			"AsterixDB(load) (MB)", "VXQuery (MB, raw files)"},
	}
	for _, m := range measurementsSweep {
		src, rawBytes, err := sensorSource(sweepConfig(s, m))
		if err != nil {
			return nil, err
		}
		st, err := mongosim.Load(src, "/sensors")
		if err != nil {
			return nil, err
		}
		ld := asterixsim.New(asterixsim.LoadFirst, src)
		if err := ld.Load("/sensors"); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m), mb(rawBytes), mb(st.StoredBytes),
			mb(ld.StorageBytes), mb(rawBytes),
		})
	}
	return []*Table{t}, nil
}

func runTab1(s Settings) ([]*Table, error) {
	t := &Table{
		Title: "Loading time vs measurements per results array",
		Paper: "Table 1: MongoDB 9000s@30 -> 19876s@1 (less compression, more docs); AsterixDB(load) ~24000s, roughly flat",
		Header: []string{"meas/array", "MongoDB load (ms)", "AsterixDB(load) load (ms)",
			"Mongo docs", "ADM docs"},
	}
	for _, m := range measurementsSweep {
		src, _, err := sensorSource(sweepConfig(s, m))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		st, err := mongosim.Load(src, "/sensors")
		if err != nil {
			return nil, err
		}
		mLoad := time.Since(start)
		ld := asterixsim.New(asterixsim.LoadFirst, src)
		start = time.Now()
		if err := ld.Load("/sensors"); err != nil {
			return nil, err
		}
		aLoad := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m), ms(mLoad), ms(aLoad),
			fmt.Sprintf("%d", st.DocumentsLoaded), fmt.Sprintf("%d", ld.DocumentsLoaded),
		})
	}
	return []*Table{t}, nil
}

// sparkSizes are the Fig. 19 / Table 2 data sizes, as multiples of the base
// dataset (the paper uses 400 MB, 800 MB, 1000 MB).
var sparkSizes = []struct {
	name string
	mult float64
}{
	{"400", 1.0},
	{"800", 2.0},
	{"1000", 2.5},
}

func sparkDataset(s Settings, mult float64) gen.Config {
	cfg := defaultDataset(s)
	cfg.Files = int(float64(cfg.Files) * mult)
	if cfg.Files < 1 {
		cfg.Files = 1
	}
	return cfg
}

func runFig19(s Settings) ([]*Table, error) {
	t := &Table{
		Title: "SparkSQL vs VXQuery, query Q1, growing data sizes",
		Paper: "Figure 19: Spark faster on small inputs (data already loaded), VXQuery wins as size grows; VXQuery bar includes all work, Spark bar is query-only",
		Header: []string{"size (paper MB)", "VXQuery total (ms)", "Spark query-only (ms)",
			"Spark load+query (ms)"},
	}
	for _, sz := range sparkSizes {
		src, _, err := sensorSource(sparkDataset(s, sz.mult))
		if err != nil {
			return nil, err
		}
		_, vt, err := runQuery(QueryQ1, core.AllRules(), 1, src)
		if err != nil {
			return nil, err
		}
		loadStart := time.Now()
		table, err := sparksim.Load(src, "/sensors", sparksim.Config{})
		if err != nil {
			return nil, err
		}
		loadTime := time.Since(loadStart)
		qStart := time.Now()
		table.CountStationsByDate("TMIN")
		qTime := time.Since(qStart)
		t.Rows = append(t.Rows, []string{
			sz.name, ms(vt), ms(qTime), ms(loadTime + qTime),
		})
	}
	return []*Table{t}, nil
}

func runTab2(s Settings) ([]*Table, error) {
	t := &Table{
		Title:  "SparkSQL loading time per data size",
		Paper:  "Table 2: 6.3s@400MB, 15s@800MB, 40s@1000MB — superlinear growth",
		Header: []string{"size (paper MB)", "raw bytes (MB)", "Spark load (ms)"},
	}
	for _, sz := range sparkSizes {
		src, raw, err := sensorSource(sparkDataset(s, sz.mult))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := sparksim.Load(src, "/sensors", sparksim.Config{}); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{sz.name, mb(raw), ms(time.Since(start))})
	}
	return []*Table{t}, nil
}

func runTab3(s Settings) ([]*Table, error) {
	t := &Table{
		Title: "Memory consumption: SparkSQL vs VXQuery",
		Paper: "Table 3: Spark 5650-7953 MB for 400-1000 MB inputs; VXQuery ~1700 MB flat; Spark cannot load past the node's RAM",
		Header: []string{"size (paper MB)", "Spark memory (MB)", "VXQuery peak (MB)",
			"Spark OOM at limit?"},
	}
	for _, sz := range sparkSizes {
		cfg := sparkDataset(s, sz.mult)
		src, raw, err := sensorSource(cfg)
		if err != nil {
			return nil, err
		}
		table, err := sparksim.Load(src, "/sensors", sparksim.Config{})
		if err != nil {
			return nil, err
		}
		c, err := core.CompileQuery(QueryQ1, core.Options{Rules: core.AllRules(), Partitions: 1})
		if err != nil {
			return nil, err
		}
		res, _, err := measured(c.Job, src)
		if err != nil {
			return nil, err
		}
		// Demonstrate the OOM path with a budget below the needed memory.
		_, oomErr := sparksim.Load(src, "/sensors", sparksim.Config{
			MemoryLimitBytes: table.MemoryBytes / 2,
		})
		oom := "no"
		if errors.Is(oomErr, sparksim.ErrOutOfMemory) {
			oom = "yes (budget = half of needed)"
		}
		_ = raw
		t.Rows = append(t.Rows, []string{
			sz.name, mb(table.MemoryBytes), mb(res.PeakMemory), oom,
		})
	}
	return []*Table{t}, nil
}

func runTab4(s Settings) ([]*Table, error) {
	t := &Table{
		Title:  "MongoDB loading time at the cluster dataset sizes",
		Paper:  "Table 4: 9000s for 88 GB, 81000s for 803 GB — a huge overhead for real-time use",
		Header: []string{"dataset (paper GB)", "raw bytes (MB)", "MongoDB load (ms)"},
	}
	for _, sz := range []struct {
		name string
		mult int
	}{{"88", 1}, {"803", 9}} {
		cfg := defaultDataset(s)
		cfg.Files = s.files(8) * sz.mult
		src, raw, err := sensorSource(cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := mongosim.Load(src, "/sensors"); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{sz.name, mb(raw), ms(time.Since(start))})
	}
	return []*Table{t}, nil
}
