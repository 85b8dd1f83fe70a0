package bench

import (
	goruntime "runtime"
	"testing"
	"time"

	"vxq/internal/jsonparse"
)

// The parse-kernel microbenchmarks: tokens flowing through the projector on
// the project-1-of-N-fields and skip-whole-record shapes, across the two
// skip implementations (structural index, token-level reference). Run with
// -benchmem: the bytes/s column is the headline, and
// the per-record allocation count is reported as a custom metric.

func benchParseShape(b *testing.B, shape, mode string) {
	b.Helper()
	data, records := ParseBenchStream(4 << 20)
	path, err := ParseBenchPath(shape)
	if err != nil {
		b.Fatal(err)
	}
	skip, err := ParseBenchMode(mode)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScanParseBench(data, path, skip); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	goruntime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(int64(b.N)*int64(records)), "allocs/record")
}

// BenchmarkProjectOneField: project 1 small field from ~1 KiB records with
// the structural-index kernel — the acceptance-criteria shape.
func BenchmarkProjectOneField(b *testing.B) { benchParseShape(b, "project1", "index") }

// BenchmarkProjectOneFieldReference is the same shape through the
// token-level reference skip (the pre-kernel behaviour).
func BenchmarkProjectOneFieldReference(b *testing.B) { benchParseShape(b, "project1", "reference") }

// BenchmarkSkipWholeRecord: a projection that matches nothing, so every
// record is skipped whole — the pure skip throughput ceiling, through the
// structural-index kernel.
func BenchmarkSkipWholeRecord(b *testing.B) { benchParseShape(b, "skiprecord", "index") }

// BenchmarkSkipWholeRecordReference is the token-level counterpart.
func BenchmarkSkipWholeRecordReference(b *testing.B) { benchParseShape(b, "skiprecord", "reference") }

// bitmapBuilderPass runs phase 1 alone: IndexBlock over every whole 64-byte
// block of data with carried state, no phase-2 consumer — the raw ceiling of
// the structural-index pass. The folded masks are returned so the work
// cannot be eliminated.
func bitmapBuilderPass(data []byte) uint64 {
	var (
		st   jsonparse.StructState
		sink uint64
	)
	for off := 0; off+64 <= len(data); off += 64 {
		m := jsonparse.IndexBlock(data[off:off+64], &st)
		sink ^= m.Structural ^ m.InString ^ m.Newline
	}
	return sink
}

// BenchmarkBitmapBuilder is the phase-1 pass alone over the workload.
func BenchmarkBitmapBuilder(b *testing.B) {
	data, _ := ParseBenchStream(4 << 20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink ^= bitmapBuilderPass(data)
	}
	goruntime.KeepAlive(sink)
}

// BenchmarkLexerTokens streams every token of the workload through Next —
// the tokenizer floor without any skip at all (full parse minus tree
// building).
func BenchmarkLexerTokens(b *testing.B) {
	data, _ := ParseBenchStream(4 << 20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := jsonparse.NewLexer(data)
		for {
			if err := l.Next(); err != nil {
				b.Fatal(err)
			}
			if l.Kind == jsonparse.TokEOF {
				break
			}
		}
	}
}

// TestParseKernelBounds pins the structural-index kernel's committed claims
// in machine-independent form (ratios against in-process baselines, not
// absolute MB/s, so CI noise and slow runners cannot flip it):
//
//   - skiprecord: the index kernel beats the token-level reference by >= 2x;
//   - project1: the index kernel beats the reference by >= 1.5x;
//   - project1 allocations: <= 0.05 allocs/record (the interned-item scan);
//   - all modes emit identical item counts;
//   - the phase-1 bitmap builder allocates nothing.
func TestParseKernelBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping kernel bounds in -short")
	}
	const minDur = 300 * time.Millisecond
	data, records := ParseBenchStream(4 << 20)
	for _, shape := range []string{"project1", "skiprecord"} {
		path, err := ParseBenchPath(shape)
		if err != nil {
			t.Fatal(err)
		}
		var emitted [2]int // index, reference
		pass := func(k int, mode jsonparse.SkipMode) func() error {
			return func() (err error) {
				emitted[k], err = ScanParseBench(data, path, mode)
				return err
			}
		}
		secs := bestOf(t, minDur, pass(0, jsonparse.SkipIndexed), pass(1, jsonparse.SkipTokens))
		mb := float64(len(data)) / (1 << 20)
		allocsPerRecord := allocsPerPass(t, pass(0, jsonparse.SkipIndexed)) / float64(records)
		t.Logf("%s: index %.0f MB/s (%.4f allocs/record), reference %.0f MB/s, emitted %d",
			shape, mb/secs[0], allocsPerRecord, mb/secs[1], emitted[0])
		if emitted[0] != emitted[1] {
			t.Errorf("%s: emitted diverges: index %d, reference %d", shape, emitted[0], emitted[1])
		}
		want := 1.5
		if shape == "skiprecord" {
			want = 2
		}
		if speedup := secs[1] / secs[0]; speedup < want {
			t.Errorf("%s: index speedup over reference = %.2fx, want >= %.1fx (index %.4fs, reference %.4fs)",
				shape, speedup, want, secs[0], secs[1])
		}
		if shape == "project1" && allocsPerRecord > 0.05 {
			t.Errorf("project1 index allocs/record = %.4f, want <= 0.05", allocsPerRecord)
		}
	}
	var sink uint64
	bitmapPass := func() error { sink ^= bitmapBuilderPass(data); return nil }
	secs := bestOf(t, minDur, bitmapPass)
	// Per 4 KiB chunk of input, the streaming refill unit: the kernel itself
	// must not allocate at all.
	allocsPerChunk := allocsPerPass(t, bitmapPass) / float64(len(data)/4096)
	goruntime.KeepAlive(sink)
	t.Logf("bitmap builder: %.2f GB/s, %.4f allocs/chunk", float64(len(data))/(1<<30)/secs[0], allocsPerChunk)
	if allocsPerChunk > 0.001 {
		t.Errorf("bitmap builder allocs/chunk = %.4f, want 0", allocsPerChunk)
	}
}
