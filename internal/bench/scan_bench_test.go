package bench

import (
	"os"
	goruntime "runtime"
	"testing"

	"vxq/internal/core"
	"vxq/internal/frame"
	"vxq/internal/hyracks"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// benchScanScale picks the workload size: quick by default; the acceptance
// scale (1x64 MiB + 31x2 MiB) with VXQ_SCAN_FULL=1.
func benchScanScale() ScanScale {
	if os.Getenv("VXQ_SCAN_FULL") != "" {
		return FullScanScale()
	}
	return QuickScanScale()
}

func benchScan(b *testing.B, src runtime.Source, total int64, scale ScanScale) {
	b.Helper()
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunScanCount(src, 8, scale.MorselSize)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.TuplesProduced == 0 {
			b.Fatal("scan produced no tuples")
		}
	}
}

// BenchmarkScanSkewed scans one oversized file plus many small ones on 8
// partitions: the workload that static file striding serializes onto a
// single partition and the shared morsel queue balances.
func BenchmarkScanSkewed(b *testing.B) {
	scale := benchScanScale()
	src, total := SkewedScanSource(scale)
	benchScan(b, src, total, scale)
}

// BenchmarkScanUniform is the control: the same total bytes spread evenly.
// The acceptance criterion is skewed within 1.3x of this.
func BenchmarkScanUniform(b *testing.B) {
	scale := benchScanScale()
	src, total := UniformScanSource(scale)
	benchScan(b, src, total, scale)
}

// BenchmarkScanSelectProject measures the end-to-end select/project pipeline
// (scan -> select on dataType -> project) and reports total allocations per
// produced tuple. This number includes building the item tree for every
// parsed record — the cost of querying raw self-describing data — on top of
// the frame-path overhead isolated by BenchmarkFramePathProjectRaw.
func BenchmarkScanSelectProject(b *testing.B) {
	scale := QuickScanScale()
	src, total := UniformScanSource(scale)
	cond := runtime.CallEval{Fn: runtime.MustFunction("eq"), Args: []runtime.Evaluator{
		runtime.CallEval{Fn: runtime.MustFunction("value"), Args: []runtime.Evaluator{
			runtime.ColumnEval{Col: 0},
			runtime.ConstEval{Seq: item.Single(item.String("dataType"))},
		}},
		runtime.ConstEval{Seq: item.Single(item.String("TMIN"))},
	}}
	job := ScanCountJob(8)
	job.Fragments[0].Ops = append([]hyracks.OpSpec{&hyracks.SelectSpec{Cond: cond}}, job.Fragments[0].Ops...)
	b.SetBytes(total)
	b.ReportAllocs()
	var tuples int64
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := &hyracks.Env{Source: src, Accountant: frame.NewAccountant(0), MorselSize: scale.MorselSize}
		res, err := hyracks.RunPipelined(job, env)
		if err != nil {
			b.Fatal(err)
		}
		tuples += res.Stats.TuplesProduced
	}
	b.StopTimer()
	goruntime.ReadMemStats(&m1)
	if tuples > 0 {
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(tuples), "allocs/tuple")
	}
}

// poolSink recycles every received frame, standing in for a terminal that
// copies nothing (pure frame-path measurement).
type poolSink struct{ pool *frame.Pool }

func (s poolSink) Open() error                { return nil }
func (s poolSink) Push(fr *frame.Frame) error { s.pool.Put(fr); return nil }
func (s poolSink) Close() error               { return nil }

// BenchmarkFramePathProjectRaw isolates the dataflow frame path — pooled
// frame checkout, tuple append, raw project, recycle — from parsing and item
// materialization. This is the path the issue bounds at <= 1 alloc per
// tuple: with the frame pool and per-call scratch it allocates nothing in
// steady state.
func BenchmarkFramePathProjectRaw(b *testing.B) {
	acct := frame.NewAccountant(0)
	pool := frame.NewPool(frame.DefaultFrameSize, acct)
	ctx := &hyracks.TaskCtx{
		RT:   &runtime.Ctx{Accountant: acct, Stats: &runtime.Stats{}},
		Pool: pool,
	}
	chain := hyracks.BuildChain(ctx, []hyracks.OpSpec{&hyracks.ProjectSpec{Cols: []int{0}}}, poolSink{pool: pool})
	if err := chain.Open(); err != nil {
		b.Fatal(err)
	}
	// One pre-encoded two-field tuple, appended until the frame is full.
	f0 := item.EncodeSeq(nil, item.Single(item.String("2013-12-25T00:00")))
	f1 := item.EncodeSeq(nil, item.Single(item.Number(42)))
	tuple := [][]byte{f0, f1}
	perFrame := 0
	{
		probe := frame.New(frame.DefaultFrameSize)
		for probe.AppendTuple(tuple) && !probe.Oversize() {
			perFrame++
		}
	}
	b.ReportAllocs()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := pool.Get()
		for t := 0; t < perFrame; t++ {
			fr.AppendTuple(tuple)
		}
		if err := chain.Push(fr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	goruntime.ReadMemStats(&m1)
	if err := chain.Close(); err != nil {
		b.Fatal(err)
	}
	tuples := float64(b.N) * float64(perFrame)
	if tuples > 0 {
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/tuples, "allocs/tuple")
	}
}

// BenchmarkScanQ1GroupBy runs the paper's Q1 (filter + group-by + count)
// end to end over the uniform workload: the group-by hot path with frame
// recycling through the hash exchange.
func BenchmarkScanQ1GroupBy(b *testing.B) {
	scale := QuickScanScale()
	src, total := UniformScanSource(scale)
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := runQuery(QueryQ1, core.AllRules(), 4, src)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no groups")
		}
	}
}
