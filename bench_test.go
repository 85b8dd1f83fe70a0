package vxq

// Benchmark harness: one sub-benchmark per reproduced table and figure of the
// paper's evaluation section (regenerating its rows via internal/bench), plus the
// ablation benchmarks called out in DESIGN.md §6 and micro-benchmarks of the
// engine's hot paths.
//
// Run everything:     go test -bench=. -benchmem
// One figure:         go test -bench=Experiments/fig14
// Full tables:        go run ./cmd/experiments [-run fig14] [-factor 4]

import (
	"fmt"
	"testing"

	"vxq/internal/bench"
	"vxq/internal/core"
	"vxq/internal/frame"
	"vxq/internal/gen"
	"vxq/internal/hyracks"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// BenchmarkExperiments has one sub-benchmark per registered experiment
// (fig13 ... fig18a, tab3), each iteration regenerating that table or
// figure — so a newly registered experiment is benchmarked without an edit
// here.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.All() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tables, err := e.Run(bench.Settings{})
				if err != nil {
					b.Fatal(err)
				}
				if len(tables) == 0 {
					b.Fatal("no tables produced")
				}
			}
		})
	}
}

// --- ablation benchmarks (DESIGN.md §6) --------------------------------------

func benchDataset(b *testing.B, files int) runtime.Source {
	b.Helper()
	cfg := gen.Default()
	cfg.Files = files
	cfg.RecordsPerFile = 8
	docs, _, err := cfg.InMemory()
	if err != nil {
		b.Fatal(err)
	}
	return &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
}

func benchRun(b *testing.B, query string, rules core.RuleConfig, partitions, frameSize int, src runtime.Source) {
	b.Helper()
	c, err := core.CompileQuery(query, core.Options{Rules: rules, Partitions: partitions})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := &hyracks.Env{Source: src, FrameSize: frameSize}
		res, err := hyracks.RunStaged(c.Job, env)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 && query != bench.QueryQ2 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkAblationDataScanArgument isolates the DATASCAN second argument
// (streaming projection): with the full pipelining rules vs record-boundary
// merging only (everything else identical). The paper attributes the
// biggest win to this argument (Fig. 14, Q0b discussion).
func BenchmarkAblationDataScanArgument(b *testing.B) {
	src := benchDataset(b, 6)
	withArg := core.AllRules()
	withoutArg := core.AllRules()
	withoutArg.NoProjectionPushdown = true
	b.Run("projection-pushdown", func(b *testing.B) {
		benchRun(b, bench.QueryQ0b, withArg, 1, 0, src)
	})
	b.Run("record-materialization", func(b *testing.B) {
		benchRun(b, bench.QueryQ0b, withoutArg, 1, 0, src)
	})
}

// BenchmarkAblationTwoStepAggregation compares the two-step (local/global)
// aggregation scheme against single-step repartitioning for Q1 at 4
// partitions (§4.3).
func BenchmarkAblationTwoStepAggregation(b *testing.B) {
	src := benchDataset(b, 8)
	run := func(b *testing.B, singleStep bool) {
		c, err := core.CompileQuery(bench.QueryQ1, core.Options{
			Rules:                 core.AllRules(),
			Partitions:            4,
			SingleStepAggregation: singleStep,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hyracks.RunStaged(c.Job, &hyracks.Env{Source: src}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("two-step", func(b *testing.B) { run(b, false) })
	b.Run("single-step", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationFrameSize sweeps the dataflow frame capacity for Q0
// (DESIGN.md §6 item 3).
func BenchmarkAblationFrameSize(b *testing.B) {
	src := benchDataset(b, 6)
	for _, size := range []int{4 << 10, 32 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			benchRun(b, bench.QueryQ0, core.AllRules(), 1, size, src)
		})
	}
}

// BenchmarkAblationJoinStrategy compares the extracted hash join against
// the cross-product fallback for Q2 on a deliberately tiny dataset (the
// cross product is quadratic).
func BenchmarkAblationJoinStrategy(b *testing.B) {
	cfg := gen.Default()
	cfg.Files = 2
	cfg.RecordsPerFile = 2
	cfg.MeasurementsPerArray = 10
	docs, _, err := cfg.InMemory()
	if err != nil {
		b.Fatal(err)
	}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}

	b.Run("hash-join", func(b *testing.B) {
		benchRun(b, bench.QueryQ2, core.AllRules(), 1, 0, src)
	})
	b.Run("cross-product", func(b *testing.B) {
		rules := core.AllRules()
		rules.NoJoinExtraction = true
		benchRun(b, bench.QueryQ2, rules, 1, 0, src)
	})
}

// --- micro-benchmarks ----------------------------------------------------

func BenchmarkMicroStreamingProjector(b *testing.B) {
	cfg := gen.Default()
	data := cfg.File(0)
	path := jsonparse.Path{
		jsonparse.KeyStep("root"), jsonparse.MembersStep(),
		jsonparse.KeyStep("results"), jsonparse.MembersStep(),
		jsonparse.KeyStep("date"),
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := jsonparse.Project(data, path, func(item.Item) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no items")
		}
	}
}

func BenchmarkMicroFullParse(b *testing.B) {
	cfg := gen.Default()
	data := cfg.File(0)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := jsonparse.Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroItemEncodeDecode(b *testing.B) {
	doc, err := jsonparse.Parse(gen.Default().File(0))
	if err != nil {
		b.Fatal(err)
	}
	enc := item.Encode(nil, doc)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := item.Encode(nil, doc)
		if _, _, err := item.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroFrameAppend(b *testing.B) {
	fields := frame.EncodeFields([]item.Sequence{
		item.Single(item.String("2013-12-25T00:00")),
		item.Single(item.Number(42)),
	})
	fr := frame.New(32 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !fr.AppendTuple(fields) {
			fr.Reset()
		}
	}
}
