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

// queryBenchPass prebuilds a shape's input frames (the join build side holds
// one row per distinct key) and returns a function running one pass of it in
// the given mode, yielding the pass's output tuple count.
func queryBenchPass(shape string) func(mode string) (int64, error) {
	frames := hyracks.BenchFrames(QueryBenchRows(queryBenchTuples), 0)
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
	pass := queryBenchPass(shape)
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
func TestQueryKernelBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping kernel bounds in -short")
	}
	const minDur = 300 * time.Millisecond
	for _, shape := range []string{"groupby", "shuffle", "join"} {
		secs, encoded, out := timeQueryModes(t, shape, minDur, "encoded", "eager")
		allocsPerTuple := allocsPerPass(t, encoded) / queryBenchTuples
		t.Logf("%s: encoded %.2f Mtuples/s (%.4f allocs/tuple), eager %.2f Mtuples/s, output %d",
			shape, queryBenchTuples/secs[0]/1e6, allocsPerTuple, queryBenchTuples/secs[1]/1e6, out)
		speedup := secs[1] / secs[0]
		if shape == "join" {
			t.Logf("join: encoded %.2fx eager — informational only", speedup)
			continue
		}
		if speedup < 2 {
			t.Errorf("%s: encoded speedup %.2fx over eager, want >= 2x (encoded %.4fs, eager %.4fs)",
				shape, speedup, secs[0], secs[1])
		}
		if shape == "groupby" && allocsPerTuple > 0.1 {
			t.Errorf("groupby encoded allocs/tuple = %.4f, want <= 0.1", allocsPerTuple)
		}
	}
}

// timeQueryModes times one shape under two modes through bestOf and returns
// the per-mode best seconds, the first mode's pass function, and the output
// tuple count, which every pass of both modes must agree on.
func timeQueryModes(t *testing.T, shape string, minDur time.Duration, modeA, modeB string) (secs []float64, passA func() error, out int64) {
	t.Helper()
	pass := queryBenchPass(shape)
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
	passA = timed(modeA)
	return bestOf(t, minDur, passA, timed(modeB)), passA, out
}

// TestProfileOverheadBound pins the profiling tax: the kernel with the
// boundary wrappers installed must stay within 3% of the unprofiled kernel
// on the query-kernel shapes. Passes of the two modes are interleaved (the
// pair order alternating each iteration) and each side takes its best pass,
// so drift of the machine (frequency scaling, co-tenants, the rest of the
// test suite running in sibling processes) cancels instead of biasing one
// mode. A shape over the bound is re-measured with a longer window before
// failing — transient contention must not fail CI, persistent overhead must.
func TestProfileOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping profile overhead bound in -short")
	}
	const minDur = 300 * time.Millisecond // per mode
	const bound = 1.03
	for _, shape := range []string{"groupby", "shuffle", "join"} {
		measure := func(dur time.Duration) float64 {
			secs, _, _ := timeQueryModes(t, shape, dur, "encoded", "profiled")
			ratio := secs[1] / secs[0]
			t.Logf("%s: profiled/unprofiled = %.4f (%.4fs vs %.4fs)", shape, ratio, secs[1], secs[0])
			return ratio
		}
		ratio := measure(minDur)
		for window := 2 * minDur; ratio > bound && window <= 4*minDur; window *= 2 {
			t.Logf("%s: over the bound, re-measuring with a longer window", shape)
			ratio = min(ratio, measure(window))
		}
		if ratio > bound {
			t.Errorf("%s: profiling overhead %.1f%% exceeds the %.0f%% bound",
				shape, 100*(ratio-1), 100*(bound-1))
		}
	}
}
