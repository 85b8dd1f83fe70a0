package bench

import (
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"vxq/internal/frame"
	"vxq/internal/hyracks"
)

// The query-kernel microbenchmarks: the binary tuple kernel (encoded-key
// hashing, lazy field decode, CountStepper counts) against the eager
// reference on GROUP-BY, hash shuffle, and hash join. Run with -benchmem;
// allocs per input tuple is reported as a custom metric.

// queryBenchTuples sizes the probe/input side of every query-kernel shape.
const queryBenchTuples = 100_000

// queryBenchPass prebuilds a shape's input frames of the given number of
// tuples (the join build side holds one row per distinct key) and returns a
// function running one pass of it in the given mode, yielding the pass's
// output tuple count.
func queryBenchPass(shape string, tuples int) func(mode string) (int64, error) {
	frames := hyracks.BenchFrames(QueryBenchRows(tuples), 0)
	var build []*frame.Frame
	if shape == "join" {
		build = hyracks.BenchFrames(QueryBenchRows(QueryBenchKeys), 0)
	}
	return func(mode string) (int64, error) {
		return RunQueryBenchPass(shape, mode, frames, build)
	}
}

func benchQueryShape(b *testing.B, shape, mode string) {
	b.Helper()
	pass := queryBenchPass(shape, queryBenchTuples)
	if _, err := pass(mode); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pass(mode); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	goruntime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N*queryBenchTuples), "allocs/tuple")
	b.ReportMetric(float64(b.N*queryBenchTuples)/b.Elapsed().Seconds()/1e6, "mtuples/s")
}

func BenchmarkGroupByEncoded(b *testing.B)      { benchQueryShape(b, "groupby", "encoded") }
func BenchmarkGroupByEager(b *testing.B)        { benchQueryShape(b, "groupby", "eager") }
func BenchmarkGroupByProfiled(b *testing.B)     { benchQueryShape(b, "groupby", "profiled") }
func BenchmarkHashShuffleEncoded(b *testing.B)  { benchQueryShape(b, "shuffle", "encoded") }
func BenchmarkHashShuffleEager(b *testing.B)    { benchQueryShape(b, "shuffle", "eager") }
func BenchmarkHashShuffleProfiled(b *testing.B) { benchQueryShape(b, "shuffle", "profiled") }
func BenchmarkHashJoinEncoded(b *testing.B)     { benchQueryShape(b, "join", "encoded") }
func BenchmarkHashJoinEager(b *testing.B)       { benchQueryShape(b, "join", "eager") }
func BenchmarkHashJoinProfiled(b *testing.B)    { benchQueryShape(b, "join", "profiled") }

// TestQueryKernelBounds pins the acceptance bounds of the binary tuple
// kernel: the encoded GROUP-BY stays under 0.1 allocations per input tuple,
// and the encoded GROUP-BY and hash shuffle beat the eager reference by at
// least 2x. Join speedup is reported but not pinned (output dominates it).
// The speedup is the median over rounds of the eager/encoded ratio of a
// round's two adjacent passes, judged like TestProfileOverheadBound's
// overhead (pairedMedian).
func TestQueryKernelBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping kernel bounds in -short")
	}
	const window = 300 * time.Millisecond // per mode
	const bound = 2.0
	for _, shape := range []string{"groupby", "shuffle", "join"} {
		encoded, eager, out := queryModePasses(t, shape, queryBenchTuples, "encoded", "eager")
		allocsPerTuple := allocsPerPass(t, encoded) / queryBenchTuples
		windows := gateWindows
		if shape == "join" {
			windows = 1
		}
		speedup := pairedMedian(t, shape+": eager/encoded", window, windows, bound, encoded, eager)
		t.Logf("%s: %.4f allocs/tuple, output %d", shape, allocsPerTuple, out)
		if shape == "join" {
			t.Logf("join: encoded %.2fx eager — informational only", speedup)
			continue
		}
		if speedup < bound {
			t.Errorf("%s: encoded speedup %.2fx over eager (median of adjacent pairs), want >= %.0fx",
				shape, speedup, bound)
		}
		if shape == "groupby" && allocsPerTuple > 0.1 {
			t.Errorf("groupby encoded allocs/tuple = %.4f, want <= 0.1", allocsPerTuple)
		}
	}
}

// queryModePasses returns one shape's pass over the given number of tuples
// under each of two modes, and the output tuple count of a first modeA pass,
// which every later pass of both modes must agree on.
func queryModePasses(t *testing.T, shape string, tuples int, modeA, modeB string) (passA, passB func() error, out int64) {
	t.Helper()
	pass := queryBenchPass(shape, tuples)
	out, err := pass(modeA)
	if err != nil {
		t.Fatalf("%s/%s: %v", shape, modeA, err)
	}
	timed := func(mode string) func() error {
		return func() error {
			o, err := pass(mode)
			if err == nil && o != out {
				err = fmt.Errorf("output %d, want %d as in the first %s pass", o, out, modeA)
			}
			if err != nil {
				return fmt.Errorf("%s/%s: %w", shape, mode, err)
			}
			return nil
		}
	}
	return timed(modeA), timed(modeB), out
}

// profileGateTuples sizes the profile gate's passes: a tenth of the kernel
// bounds' input, so a pass takes a few milliseconds and a window holds
// hundreds of adjacent pairs. Per-pass fixed costs weigh more at this size,
// which can only raise the measured overhead.
const profileGateTuples = queryBenchTuples / 10

// TestProfileOverheadBound pins the profiling tax: the kernel with the
// boundary wrappers installed must stay within 3% of the unprofiled kernel
// on the query-kernel shapes. The statistic is the median over rounds of
// the profiled/unprofiled ratio of a round's two passes (pairedMedian).
func TestProfileOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping profile overhead bound in -short")
	}
	const window = 500 * time.Millisecond // per mode
	const bound = 1.03
	for _, shape := range []string{"groupby", "shuffle", "join"} {
		unprofiled, profiled, _ := queryModePasses(t, shape, profileGateTuples, "encoded", "profiled")
		if med := pairedMedian(t, shape+": profiled/unprofiled", window, gateWindows, bound, unprofiled, profiled); med > bound {
			t.Errorf("%s: profiling overhead %.1f%% exceeds the %.0f%% bound",
				shape, 100*(med-1), 100*(bound-1))
		}
	}
}

// gateWindows caps how many windows of pairs pairedMedian pools.
const gateWindows = 8

// pairedMedian is the statistic of the paired-median gates: the median over
// rounds of the b/a ratio of a round's two passes (pairedRatios). The two
// are adjacent in time and their order alternates, so drift of the machine
// (frequency scaling, co-tenants, the rest of the test suite in sibling
// processes) cancels within each ratio, and a pass a burst of contention
// slowed moves the median by one rank instead of deciding a best-of.
// Windows of pairs are pooled until the median's 99% confidence interval
// lies on one side of bound, up to windows windows; the caller judges the
// returned median against the bound.
func pairedMedian(t *testing.T, name string, window time.Duration, windows int, bound float64, a, b func() error) float64 {
	t.Helper()
	var ratios []float64
	for w := 1; ; w++ {
		ratios = append(ratios, pairedRatios(t, window, a, b)...)
		lo, med, hi := medianCI(ratios)
		t.Logf("%s median %.4f over %d pairs (99%% CI %.4f-%.4f)", name, med, len(ratios), lo, hi)
		if hi < bound || lo > bound || w >= windows {
			return med
		}
	}
}
