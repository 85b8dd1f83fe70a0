package bench

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"vxq/internal/jsonparse"
)

// parallelBuilderSplitGrain is the record-start sampling granularity of the
// parallel-builder benchmark — the zone-map build's production grain.
const parallelBuilderSplitGrain int64 = 4 << 10

// BenchmarkParallelBuilder runs the speculative parallel builder at
// GOMAXPROCS workers over the workload — compare against
// BenchmarkBitmapBuilder (the fused sequential phase 1).
func BenchmarkParallelBuilder(b *testing.B) {
	data, _ := ParseBenchStream(16 << 20)
	pi := jsonparse.ParallelIndexer{}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sp := pi.Splits(data, parallelBuilderSplitGrain); len(sp) == 0 {
			b.Fatal("no splits")
		}
	}
}

// TestParallelIndexBounds pins the speculative parallel builder's committed
// claims on a 64 MiB workload, as ratios against the sequential
// BoundaryScanner over the same buffer — both sides run the full phase-1
// classification per block, so the ratio isolates what speculation and
// stitching cost or return. (That the splits are byte-identical is
// jsonparse's TestParallelSplitsMatchSequential.)
//
//   - scaling is keyed off the host's core count, so the gate is meaningful
//     on CI runners of any width: >= 3x at 8 workers on >= 8 cores, >= 2x at
//     4 workers on >= 4 cores, >= 1.3x at 2 workers on >= 2 cores;
//   - on any host, including single-core ones, the speculation overhead is
//     bounded: the best parallel configuration is never worse than 1.6x the
//     sequential pass (one extra pass over ~25% of the input plus stitching).
func TestParallelIndexBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping parallel index bounds in -short")
	}
	data, _ := ParseBenchStream(64 << 20)
	workers := []int{1, 2, 4, 8}
	passes := []func() error{func() error {
		bs := jsonparse.NewBoundaryScanner(parallelBuilderSplitGrain)
		bs.Write(data)
		bs.Close()
		if len(bs.Splits()) == 0 {
			return errors.New("sequential scanner: no splits")
		}
		return nil
	}}
	for _, w := range workers {
		pi := jsonparse.ParallelIndexer{Workers: w}
		passes = append(passes, func() error {
			if len(pi.Splits(data, parallelBuilderSplitGrain)) == 0 {
				return fmt.Errorf("%d workers: no splits", pi.Workers)
			}
			return nil
		})
	}
	secs := bestOf(t, 300*time.Millisecond, passes...)
	mb := float64(len(data)) / (1 << 20)
	t.Logf("sequential: %.0f MB/s", mb/secs[0])
	speedup := map[int]float64{}
	bestSpeedup := 0.0
	for i, w := range workers {
		speedup[w] = secs[0] / secs[i+1]
		t.Logf("workers=%d: %.0f MB/s (%.2fx sequential)", w, mb/secs[i+1], speedup[w])
		bestSpeedup = max(bestSpeedup, speedup[w])
	}
	ncpu := goruntime.NumCPU()
	check := func(w int, want float64) {
		if speedup[w] < want {
			t.Errorf("%d workers on %d cores: speedup %.2fx, want >= %.1fx", w, ncpu, speedup[w], want)
		}
	}
	switch {
	case ncpu >= 8:
		check(8, 3.0)
		check(4, 2.0)
	case ncpu >= 4:
		check(4, 2.0)
	case ncpu >= 2:
		check(2, 1.3)
	}
	if bestSpeedup < 1/1.6 {
		t.Errorf("best parallel configuration is %.2fx sequential; overhead bound is 1.6x slowdown", bestSpeedup)
	}
}
