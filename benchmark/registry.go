package main

import (
	"fmt"

	"vxq"
	"vxq/internal/bench"
)

// metricDef names one metric. BENCHMARK.json lists exactly these names, units
// and directions (bench_test.go pins the two against each other).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the engine sees. failed_frac is printed
// by the report but is not listed here: it is 0 on a correct run and the
// driver reads failures from the result line's attempted/failed counts.
//
// The two time-derived bounds are the largest the contract allows: the
// reference sandbox's own speed drifts by a quarter over minutes, and the
// interquartile spread of query_s_p50 over ten runs is 5–8% of its median
// (up to 13% when a slow episode hits three runs), which has to stay under a
// third of the bound. peak_mem_bytes is an accounted count and repeats to
// within 3%.
var endToEnd = []metricDef{
	{Name: "query_s_p50", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "peak_mem_bytes", Unit: "bytes", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced run, grouped by the
// module they time or count. Times are lower-is-better, rates and efficiencies
// higher; plain work counts carry "lower" (less work for the same answer).
var perLayer = []metricDef{
	// vxq: the engine as a whole, from the timed run.
	{Name: "vxq.allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "vxq.alloc_bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "vxq.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "vxq.rss_peak_bytes", Unit: "bytes", Better: "lower"},
	{Name: "vxq.samples", Unit: "count", Better: "higher"},
	{Name: "vxq.query_s_max", Unit: "s", Better: "lower"},
	// vxq: the traced 1-partition staged run.
	{Name: "vxq.query_1p_s", Unit: "s", Better: "lower"},
	{Name: "vxq.parallel_efficiency", Unit: "fraction", Better: "higher"},
	{Name: "vxq.scan_efficiency", Unit: "fraction", Better: "higher"},
	{Name: "vxq.trace_overhead_frac", Unit: "fraction", Better: "lower"},
	// core (+ jsoniq, algebricks): parse, rewrite, physical compile.
	{Name: "core.compile_s", Unit: "s", Better: "lower"},
	// runtime source: ladder rung R1.
	{Name: "runtime.read_s", Unit: "s", Better: "lower"},
	{Name: "runtime.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	// jsonparse: ladder rungs R2 and R3, and the record-boundary passes.
	{Name: "jsonparse.skip_s", Unit: "s", Better: "lower"},
	{Name: "jsonparse.skip_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "jsonparse.build_s", Unit: "s", Better: "lower"},
	{Name: "jsonparse.build_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "jsonparse.boundary_s", Unit: "s", Better: "lower"},
	{Name: "jsonparse.boundary_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "jsonparse.boundary_par_mb_per_s", Unit: "MB/s", Better: "higher"},
	// item: ladder rung R4.
	{Name: "item.encode_s", Unit: "s", Better: "lower"},
	{Name: "item.encode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "item.encoded_bytes_per_input_byte", Unit: "fraction", Better: "lower"},
	// frame: ladder rung R5.
	{Name: "frame.append_s", Unit: "s", Better: "lower"},
	{Name: "frame.frames_per_mb", Unit: "1/MB", Better: "lower"},
	// hyracks: the rest of the wall clock, the engine's own operator profile,
	// its work counts, and operator-only passes over pre-built frames.
	{Name: "hyracks.rest_s", Unit: "s", Better: "lower"},
	{Name: "hyracks.scan_self_s", Unit: "s", Better: "lower"},
	{Name: "hyracks.select_self_s", Unit: "s", Better: "lower"},
	{Name: "hyracks.assign_self_s", Unit: "s", Better: "lower"},
	{Name: "hyracks.groupby_self_s", Unit: "s", Better: "lower"},
	{Name: "hyracks.join_self_s", Unit: "s", Better: "lower"},
	{Name: "hyracks.exchange_self_s", Unit: "s", Better: "lower"},
	{Name: "hyracks.result_self_s", Unit: "s", Better: "lower"},
	{Name: "hyracks.other_self_s", Unit: "s", Better: "lower"},
	{Name: "hyracks.ladder_gap_frac", Unit: "fraction", Better: "lower"},
	{Name: "hyracks.tuples_produced", Unit: "count", Better: "lower"},
	{Name: "hyracks.tuples_shuffled", Unit: "count", Better: "lower"},
	{Name: "hyracks.bytes_shuffled", Unit: "bytes", Better: "lower"},
	{Name: "hyracks.morsels", Unit: "count", Better: "lower"},
	{Name: "hyracks.frames_forwarded", Unit: "count", Better: "higher"},
	{Name: "hyracks.frames_rebuilt", Unit: "count", Better: "lower"},
	{Name: "hyracks.hash_collisions", Unit: "count", Better: "lower"},
	{Name: "hyracks.op_mem_peak_bytes", Unit: "bytes", Better: "lower"},
	{Name: "hyracks.groupby_mtuples_per_s", Unit: "Mtuples/s", Better: "higher"},
	{Name: "hyracks.join_mtuples_per_s", Unit: "Mtuples/s", Better: "higher"},
	{Name: "hyracks.shuffle_mtuples_per_s", Unit: "Mtuples/s", Better: "higher"},
	// index: sidecars, pruning, cold boundary passes.
	{Name: "index.build_s", Unit: "s", Better: "lower"},
	{Name: "index.sidecar_load_s", Unit: "s", Better: "lower"},
	{Name: "index.sidecar_bytes_per_mb", Unit: "bytes/MB", Better: "lower"},
	{Name: "index.files_pruned_frac", Unit: "fraction", Better: "higher"},
	{Name: "index.morsels_pruned_frac", Unit: "fraction", Better: "higher"},
	{Name: "index.cold_index_builds", Unit: "count", Better: "lower"},
	// spill: out-of-core traffic of the timed run, and Writer/Reader alone.
	{Name: "spill.over_budget_x", Unit: "x", Better: "lower"},
	{Name: "spill.bytes_per_input_byte", Unit: "fraction", Better: "lower"},
	{Name: "spill.partitions", Unit: "count", Better: "lower"},
	{Name: "spill.waves", Unit: "count", Better: "lower"},
	{Name: "spill.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "spill.read_mb_per_s", Unit: "MB/s", Better: "higher"},
}

// unitOf looks a metric's unit up; reporting a metric the registry does not
// name is a bug in this program.
func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("metric not in the registry: " + name)
}

// datasetSpec describes one generated collection. Every dataset is
// gen.Config{SplitRecords, MeasurementsPerArray: 30, Stations: 50, years
// 2000–2014} at the given size.
type datasetSpec struct {
	Name string
	// Bytes is the approximate collection size at full scale.
	Bytes int64
	// RecordsPerFile fixes the file size (≈ 2.4 KB per record) when the
	// collection has many files; OneFile datasets derive it from Bytes.
	RecordsPerFile int
	OneFile        bool
	// Clustered datasets hold one year per file with dates ascending inside
	// each file, and get a zone index on the date path during set-up.
	Clustered bool
}

// The sizes are the largest that give every workload well over ten timed
// iterations inside the 15 s a run may measure (see README, "Sizes").
var datasets = map[string]datasetSpec{
	"sensors32":    {Name: "sensors32", Bytes: 32 << 20, RecordsPerFile: 2000},
	"sensors40one": {Name: "sensors40one", Bytes: 40 << 20, OneFile: true},
	"sensors16":    {Name: "sensors16", Bytes: 16 << 20, RecordsPerFile: 2000},
	// 8000 records make ≈ 19 MB files of five morsels each. Smaller files
	// prune nothing below file level: the generator wraps late-December
	// dates into January, so the last morsel of a file always spans the year.
	"sensors64c": {Name: "sensors64c", Bytes: 64 << 20, RecordsPerFile: 8000, Clustered: true},
}

// answerKind selects the oracle's evaluator for a workload's query.
type answerKind int

const (
	answerQ0 answerKind = iota
	answerQ0b
	answerQ1
	answerQ2
	answerDateRange
)

// workload is one benchmark case: a query over a dataset under engine options.
type workload struct {
	Name, Why string
	Dataset   string
	Answer    answerKind
	// OpMemoryBudget > 0 runs the blocking operators out of core.
	OpMemoryBudget int64
	// Sidecars keeps sidecar persistence on and points it at the dataset's
	// cache directory (every other workload runs with DisableSidecars).
	Sidecars bool
	// GroupBy/Join select the operator-only passes the traced run adds.
	GroupBy, Join bool
}

var workloads = []workload{
	{Name: "q0_select", Dataset: "sensors32", Answer: answerQ0,
		Why: "Q0 builds, encodes, frames and re-decodes whole record objects; 2% survive. jsonparse build, item, frame and runtime evaluation do the work"},
	{Name: "q0b_project_onefile", Dataset: "sensors40one", Answer: answerQ0b,
		Why: "Q0b on one big file: the skip kernel discards most bytes, and every run pays the speculative boundary pass and morsel stealing"},
	{Name: "q1_groupby", Dataset: "sensors32", Answer: answerQ1, GroupBy: true,
		Why: "Q1 is scan + select + two-step group-by + hash exchange at a size where fixed costs vanish"},
	{Name: "q2_join", Dataset: "sensors16", Answer: answerQ2, Join: true,
		Why: "Q2 scans twice and sends every tuple through the hash exchange into a hash join; peak memory is the build table"},
	{Name: "q2_join_spill", Dataset: "sensors16", Answer: answerQ2, Join: true, OpMemoryBudget: 1 << 20,
		Why: "Q2 under a 1 MiB operator budget: the same operators with spill writes and re-reads beside them"},
	{Name: "range_warm_pruned", Dataset: "sensors64c", Answer: answerDateRange, Sidecars: true,
		Why: "one month of one year over a date-indexed collection: a fresh engine loads sidecars, prunes files and morsels, scans the rest"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// query renders the workload's JSONiq text. Only the date-range query depends
// on the generated data (it asks for June of the last generated year).
func (w workload) query(ds *dataset) string {
	switch w.Answer {
	case answerQ0:
		return bench.QueryQ0
	case answerQ0b:
		return bench.QueryQ0b
	case answerQ1:
		return bench.QueryQ1
	case answerQ2:
		return bench.QueryQ2
	default:
		lo, hi := ds.rangeBounds()
		return fmt.Sprintf(`
for $d in collection("/sensors")("root")()("results")()("date")
where $d ge %q and $d lt %q
return $d`, lo, hi)
	}
}

// options are the engine options of one iteration: the defaults plus what the
// workload names.
func (w workload) options(ds *dataset, partitions int) vxq.Options {
	o := vxq.Options{Partitions: partitions}
	if w.Sidecars {
		o.CacheDir = ds.cacheDir
	} else {
		o.DisableSidecars = true
	}
	if w.OpMemoryBudget > 0 {
		o.OpMemoryBudget = w.OpMemoryBudget
		o.SpillDir = ds.spillDir
	}
	return o
}
