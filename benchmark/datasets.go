package main

import (
	"fmt"
	"os"
	"path/filepath"

	"vxq"
	"vxq/internal/bench"
	"vxq/internal/gen"
)

// scale sizes a run. "full" is what BENCHMARK.json measures; "tiny" keeps
// every code path but finishes in well under a second per workload (tests).
type scale struct {
	Name string
	// MaxBytes caps every dataset (0 = the dataset's own size).
	MaxBytes int64
	// RecordsPerFile overrides the dataset's (0 = the dataset's own).
	RecordsPerFile int
	// WarmUps, MinSamples and SetupReps size the timed run; Reps is the
	// repeat count of every traced pass (the ladder makes 2×Reps−1).
	WarmUps, MinSamples, SetupReps, Reps int
}

var scales = map[string]scale{
	"full": {Name: "full", WarmUps: 2, MinSamples: 10, SetupReps: 5, Reps: 3},
	"tiny": {Name: "tiny", MaxBytes: 192 << 10, RecordsPerFile: 16, MinSamples: 1, SetupReps: 1, Reps: 1},
}

// dataset is one generated collection on disk.
type dataset struct {
	spec     datasetSpec
	cfg      gen.Config
	dir      string // the data files
	cacheDir string // sidecars (clustered datasets only)
	spillDir string
	bytes    int64
	files    []string
	records  int // root-array members over all files
	// indexBuildS is the median BuildIndexes time over the set-up repeats.
	indexBuildS float64
}

// rangeBounds is June of the last generated year, as the date strings the
// date-range query compares with.
func (ds *dataset) rangeBounds() (lo, hi string) {
	return fmt.Sprintf("%04d-06-01", ds.cfg.YearMax), fmt.Sprintf("%04d-07-01", ds.cfg.YearMax)
}

// genConfig derives the generator configuration of a dataset at a scale.
func genConfig(spec datasetSpec, sc scale, seed int64) gen.Config {
	cfg := gen.Config{Seed: seed, Files: 1, RecordsPerFile: spec.RecordsPerFile,
		MeasurementsPerArray: 30, Stations: 50, YearMin: 2000, YearMax: 2014, SplitRecords: true,
		PartitionByYear: spec.Clustered, ClusterDates: spec.Clustered}
	target := spec.Bytes
	if sc.MaxBytes > 0 && target > sc.MaxBytes {
		target = sc.MaxBytes
	}
	if sc.RecordsPerFile > 0 {
		cfg.RecordsPerFile = sc.RecordsPerFile
	}
	if spec.OneFile {
		probe := cfg
		probe.RecordsPerFile = 64
		cfg.RecordsPerFile = max(1, int(target*64/int64(len(probe.File(0)))))
		return cfg
	}
	cfg = cfg.ScaleToBytes(target)
	if spec.Clustered {
		// One year per file, so a year-bounded predicate prunes whole files.
		cfg.Files = max(cfg.Files, 2)
		cfg.YearMax = cfg.YearMin + cfg.Files - 1
	}
	return cfg
}

// setupDataset generates and writes the dataset under root, sc.SetupReps
// times over, and for clustered datasets builds the date zone index and its
// sidecars each time. It returns the dataset of the last repeat and the wall
// time of every repeat; each step is a span under one "setup" span.
func setupDataset(tr *tracer, spec datasetSpec, sc scale, seed int64, root string) (*dataset, []float64, error) {
	ds := &dataset{spec: spec, cfg: genConfig(spec, sc, seed),
		dir: filepath.Join(root, "data"), cacheDir: filepath.Join(root, "cache"), spillDir: filepath.Join(root, "spill")}
	if err := ds.cfg.Validate(); err != nil {
		return nil, nil, err
	}
	var samples, indexS []float64
	for rep := 0; rep < sc.SetupReps; rep++ {
		for _, d := range []string{ds.dir, ds.cacheDir} {
			if err := os.RemoveAll(d); err != nil {
				return nil, nil, err
			}
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, nil, err
			}
		}
		ds.bytes, ds.files = 0, ds.files[:0]
		top := tr.start("setup", -1, rep)
		for i := 0; i < ds.cfg.Files; i++ {
			g := tr.start("setup.generate", top, rep)
			data := ds.cfg.File(i)
			tr.end(g)
			name := filepath.Join(ds.dir, fmt.Sprintf("sensor_%05d.json", i))
			w := tr.start("setup.write", top, rep)
			err := os.WriteFile(name, data, 0o644)
			tr.end(w)
			if err != nil {
				return nil, nil, err
			}
			ds.bytes += int64(len(data))
			ds.files = append(ds.files, name)
		}
		if spec.Clustered {
			b := tr.start("setup.build_index", top, rep)
			eng := vxq.New(vxq.Options{CacheDir: ds.cacheDir})
			eng.Mount("/sensors", ds.dir)
			err := eng.BuildIndexes("/sensors", bench.DatePathExpr)
			indexS = append(indexS, tr.end(b).seconds())
			if err != nil {
				return nil, nil, fmt.Errorf("build index: %w", err)
			}
		}
		samples = append(samples, tr.end(top).seconds())
	}
	ds.records = ds.cfg.Files * ds.cfg.RecordsPerFile
	if len(indexS) > 0 {
		ds.indexBuildS = median(indexS)
	}
	return ds, samples, nil
}
