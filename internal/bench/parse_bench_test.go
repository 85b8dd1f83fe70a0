package bench

import (
	goruntime "runtime"
	"testing"
	"time"

	"vxq/internal/jsonparse"
)

// The parse-kernel microbenchmarks: tokens flowing through the projector on
// the project-1-of-N-fields and skip-whole-record shapes, and the plain
// tokenizer pass they are gated against. Run with -benchmem: the bytes/s
// column is the headline, and the per-record allocation count is reported as
// a custom metric.

func benchParseShape(b *testing.B, shape string) {
	b.Helper()
	data, records := ParseBenchStream(4 << 20)
	path, err := ParseBenchPath(shape)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScanParseBench(data, path); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	goruntime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(int64(b.N)*int64(records)), "allocs/record")
}

// BenchmarkProjectOneField: project 1 small field from ~1 KiB records with
// the structural-index kernel — the DATASCAN-with-projection shape.
func BenchmarkProjectOneField(b *testing.B) { benchParseShape(b, "project1") }

// BenchmarkSkipWholeRecord: a projection that matches nothing, so every
// record is skipped whole — the pure skip throughput ceiling, through the
// structural-index kernel.
func BenchmarkSkipWholeRecord(b *testing.B) { benchParseShape(b, "skiprecord") }

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

// lexerTokensPass streams every token of data through Next — the tokenizer
// floor without any skip at all (full parse minus tree building).
func lexerTokensPass(data []byte) error {
	l := jsonparse.NewLexer(data)
	for {
		if err := l.Next(); err != nil {
			return err
		}
		if l.Kind == jsonparse.TokEOF {
			return nil
		}
	}
}

// BenchmarkLexerTokens is the tokenizer pass over the workload.
func BenchmarkLexerTokens(b *testing.B) {
	data, _ := ParseBenchStream(4 << 20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lexerTokensPass(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseKernelBounds pins the structural-index kernel's committed claims
// in machine-independent form (ratios against an in-process baseline, not
// absolute MB/s, so CI noise and slow runners cannot flip it). The baseline
// is the tokenizer pass over the same bytes (lexerTokensPass), which does
// less work than a token-level projection would:
//
//   - skiprecord: the index kernel beats the tokenizer pass by >= 2x;
//   - project1: the index kernel beats the tokenizer pass by >= 1.5x;
//   - project1 allocations: <= 0.05 allocs/record (the encoded scan);
//   - the phase-1 bitmap builder allocates nothing.
//
// That the projected scan emits what a full parse would is checked by
// jsonparse's TestQuickScanValuesModeEquivalence, not here.
func TestParseKernelBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping kernel bounds in -short")
	}
	const minDur = 300 * time.Millisecond
	data, records := ParseBenchStream(4 << 20)
	tokens := func() error { return lexerTokensPass(data) }
	for _, shape := range []string{"project1", "skiprecord"} {
		path, err := ParseBenchPath(shape)
		if err != nil {
			t.Fatal(err)
		}
		var emitted int
		index := func() (err error) {
			emitted, err = ScanParseBench(data, path)
			return err
		}
		secs := bestOf(t, minDur, index, tokens)
		mb := float64(len(data)) / (1 << 20)
		allocsPerRecord := allocsPerPass(t, index) / float64(records)
		t.Logf("%s: index %.0f MB/s (%.4f allocs/record), tokenizer %.0f MB/s, emitted %d",
			shape, mb/secs[0], allocsPerRecord, mb/secs[1], emitted)
		want := 1.5
		if shape == "skiprecord" {
			want = 2
		}
		if speedup := secs[1] / secs[0]; speedup < want {
			t.Errorf("%s: index speedup over the tokenizer pass = %.2fx, want >= %.1fx (index %.4fs, tokenizer %.4fs)",
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
