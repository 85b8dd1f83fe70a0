package bench

import (
	"fmt"

	"vxq/internal/frame"
	"vxq/internal/hyracks"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// The query-kernel benchmarks measure the binary tuple kernel — encoded-key
// hashing and lazy field decode through GROUP-BY, the hash exchange, and the
// hash join — against the eager reference mode (every field decoded, keys
// hashed as sequences), on the workload the paper's aggregation queries
// imply: tuples of a date-string grouping key (~365 distinct values, one
// year of days) and a numeric measurement value.

// QueryBenchKeys is the number of distinct grouping keys of the query-kernel
// workload (one year of dates).
const QueryBenchKeys = 365

// QueryBenchRows builds the workload: n tuples of [date-string, number],
// cycling through QueryBenchKeys distinct dates.
func QueryBenchRows(n int) [][]item.Sequence {
	dates := make([]item.String, QueryBenchKeys)
	d := 0
	for m := 1; m <= 12 && d < QueryBenchKeys; m++ {
		for day := 1; day <= 31 && d < QueryBenchKeys; day++ {
			dates[d] = item.String(fmt.Sprintf("2003-%02d-%02dT00:00", m, day))
			d++
		}
	}
	rows := make([][]item.Sequence, n)
	for i := range rows {
		rows[i] = []item.Sequence{
			item.Single(dates[i%QueryBenchKeys]),
			item.Single(item.Number(float64(i%100) / 2)),
		}
	}
	return rows
}

// queryBenchGroupBy is the GROUP-BY spec shared by both modes: count per
// date key. The count aggregate exercises the CountStepper fast path, so the
// encoded mode never decodes a field at all.
func queryBenchGroupBy() *hyracks.GroupBySpec {
	return &hyracks.GroupBySpec{
		Keys: []runtime.Evaluator{runtime.ColumnEval{Col: 0}},
		Aggs: []hyracks.AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: runtime.ColumnEval{Col: 1}}},
		Desc: "bench",
	}
}

func queryBenchJoin() *hyracks.JoinSpec {
	return &hyracks.JoinSpec{
		BuildKeys: []runtime.Evaluator{runtime.ColumnEval{Col: 0}},
		ProbeKeys: []runtime.Evaluator{runtime.ColumnEval{Col: 0}},
		Desc:      "bench",
	}
}

// RunQueryBenchPass runs one pass of a shape over prebuilt frames and
// returns the number of output tuples (groups, routed tuples, or joined
// tuples depending on the shape). Modes: "encoded" (the binary tuple
// kernel), "eager" (the decoded reference), and "profiled" (the kernel with
// the profiling boundary wrappers installed, for overhead measurement).
func RunQueryBenchPass(shape, mode string, frames, build []*frame.Frame) (int64, error) {
	eager := mode == "eager"
	profiled := mode == "profiled"
	switch shape {
	case "groupby":
		return hyracks.BenchGroupBy(queryBenchGroupBy(), frames, eager, profiled)
	case "shuffle":
		return hyracks.BenchHashShuffle([]runtime.Evaluator{runtime.ColumnEval{Col: 0}}, 8, frames, eager, profiled)
	case "join":
		return hyracks.BenchHashJoin(queryBenchJoin(), build, frames, eager, profiled)
	default:
		return 0, fmt.Errorf("unknown query bench shape %q", shape)
	}
}
