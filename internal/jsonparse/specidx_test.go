package jsonparse

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// specidxInputs extends the structural-index corpus with the shapes the
// speculative splitter must get right at chunk boundaries: long odd and even
// backslash runs, strings and escape sequences straddling every small chunk
// grain, and unbalanced quotes that leave a chunk inside a string.
func specidxInputs() [][]byte {
	inputs := structidxInputs()
	for _, s := range []string{
		// Odd backslash run ending exactly at a 64/128-byte boundary.
		`{"k":"` + strings.Repeat(`\`, 57) + `n"}` + "\n" + `{"z":1}` + "\n",
		`{"k":"` + strings.Repeat(`\`, 121) + `n"}` + "\n" + `{"z":1}` + "\n",
		// A string spanning several 64-byte blocks, with newlines inside.
		`{"s":"` + strings.Repeat(`line\n`, 60) + `"}` + "\n" + `{"t":2}` + "\n",
		// Unbalanced quote: everything after it is inside a string.
		`{"open":"` + strings.Repeat("a\n", 100),
		// Backslash wall: the entire prefix is backslashes.
		strings.Repeat(`\`, 200) + "\n" + `{"a":1}` + "\n",
		// Escaped quotes in a row around the record separator.
		strings.Repeat(`{"q":"\""}`+"\n", 40),
	} {
		inputs = append(inputs, []byte(s))
	}
	r := rand.New(rand.NewSource(7))
	alphabet := []byte(`"\{}[],:` + "\n abc")
	for n := 0; n < 6; n++ {
		b := make([]byte, 64*7+rand.New(rand.NewSource(int64(n))).Intn(130))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		inputs = append(inputs, b)
	}
	return inputs
}

// sequentialSplits is the trusted sequential builder: a BoundaryScanner fed
// the whole buffer in one write.
func sequentialSplits(data []byte, grain int64) []int64 {
	bs := NewBoundaryScanner(grain)
	bs.Write(data)
	bs.Close()
	return bs.Splits()
}

// sequentialMasks is the trusted sequential bitmap stream: IndexBlock over
// every 64-byte block with carried state, final block zero-padded.
func sequentialMasks(data []byte) []BlockMasks {
	var st StructState
	var out []BlockMasks
	for off := 0; off < len(data); off += 64 {
		var b []byte
		if len(data)-off >= 64 {
			b = data[off : off+64]
		} else {
			var pad [64]byte
			copy(pad[:], data[off:])
			b = pad[:]
		}
		out = append(out, IndexBlock(b, &st))
	}
	return out
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEntryEscapedMatchesSequential: the local backward-scan resolution of
// the escape-pending bit must agree with the sequential scanner's carried
// state at every offset.
func TestEntryEscapedMatchesSequential(t *testing.T) {
	for _, data := range specidxInputs() {
		var ref refState
		for off := 0; off < len(data); off++ {
			if got := entryEscaped(data, int64(off)); got != ref.esc {
				t.Fatalf("entryEscaped(%q, %d) = %v, sequential carry says %v", data, off, got, ref.esc)
			}
			if ref.esc {
				ref.esc = false
			} else if data[off] == '\\' {
				ref.esc = true
			}
		}
	}
}

// TestParallelSplitsMatchSequential sweeps the speculative splitter across
// worker counts, chunk grains (forcing many chunk boundaries inside small
// inputs) and split grains, against the sequential BoundaryScanner.
func TestParallelSplitsMatchSequential(t *testing.T) {
	for _, data := range specidxInputs() {
		for _, grain := range []int64{0, 1, 5, 64, 4096} {
			want := sequentialSplits(data, grain)
			for _, workers := range []int{1, 2, 3, 8} {
				for _, chunk := range []int64{64, 128, 192, 1024} {
					pi := ParallelIndexer{Workers: workers, Grain: chunk}
					got := pi.Splits(data, grain)
					if !int64sEqual(got, want) {
						t.Fatalf("workers=%d chunk=%d grain=%d on %q:\n got %v\nwant %v",
							workers, chunk, grain, data, got, want)
					}
				}
			}
		}
	}
}

// TestParallelScanMatchesSequential: the stitched bitmap stream must be
// byte-identical to the sequential IndexBlock stream, for every layer of
// every block, across chunk boundaries of every alignment.
func TestParallelScanMatchesSequential(t *testing.T) {
	for _, data := range specidxInputs() {
		want := sequentialMasks(data)
		for _, workers := range []int{1, 2, 3, 8} {
			for _, chunk := range []int64{64, 128, 1024} {
				pi := ParallelIndexer{Workers: workers, Grain: chunk}
				i := 0
				err := pi.Scan(data, func(off int64, m BlockMasks) error {
					if off != int64(i)*64 {
						return fmt.Errorf("block %d reported at offset %d", i, off)
					}
					if i >= len(want) {
						return fmt.Errorf("extra block at offset %d", off)
					}
					if m != want[i] {
						return fmt.Errorf("block at %d:\n got %+v\nwant %+v", off, m, want[i])
					}
					i++
					return nil
				})
				if err != nil {
					t.Fatalf("workers=%d chunk=%d on %q: %v", workers, chunk, data, err)
				}
				if i != len(want) {
					t.Fatalf("workers=%d chunk=%d on %q: visited %d blocks, want %d",
						workers, chunk, data, i, len(want))
				}
			}
		}
	}
}

// TestParallelScanStopsOnVisitError: the error a visit callback returns
// comes back verbatim and stops the walk.
func TestParallelScanStopsOnVisitError(t *testing.T) {
	data := bytes.Repeat([]byte(`{"a":1}`+"\n"), 100)
	sentinel := errors.New("stop right there")
	calls := 0
	err := ParallelIndexer{Workers: 4, Grain: 64}.Scan(data, func(off int64, m BlockMasks) error {
		calls++
		if calls == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Scan error = %v, want the sentinel", err)
	}
	if calls != 3 {
		t.Fatalf("visit called %d times after error, want 3", calls)
	}
}

// bytesRangeOpener adapts an in-memory buffer to the RangeOpener shape, with
// optional error injection at a byte offset.
type bytesRangeOpener struct {
	data    []byte
	failAt  int64 // reads reaching this absolute offset fail (-1 = never)
	failMsg string
}

func (o *bytesRangeOpener) open(off int64) (io.ReadCloser, error) {
	if off < 0 || off > int64(len(o.data)) {
		return nil, fmt.Errorf("offset %d out of range", off)
	}
	return &rangeReader{o: o, off: off}, nil
}

type rangeReader struct {
	o   *bytesRangeOpener
	off int64
}

func (r *rangeReader) Read(p []byte) (int, error) {
	if r.o.failAt >= 0 && r.off >= r.o.failAt {
		return 0, errors.New(r.o.failMsg)
	}
	if r.off >= int64(len(r.o.data)) {
		return 0, io.EOF
	}
	n := copy(p, r.o.data[r.off:])
	if r.o.failAt >= 0 && r.off+int64(n) > r.o.failAt {
		n = int(r.o.failAt - r.off)
	}
	r.off += int64(n)
	return n, nil
}

func (r *rangeReader) Close() error { return nil }

// TestSplitsRangeMatchesSequential drives the streaming range-reader path —
// including the doubling lookback of entryEscapedRange — against the
// sequential scanner, with refill buffers small enough to split every block.
func TestSplitsRangeMatchesSequential(t *testing.T) {
	for _, data := range specidxInputs() {
		opener := &bytesRangeOpener{data: data, failAt: -1}
		for _, grain := range []int64{0, 64, 4096} {
			want := sequentialSplits(data, grain)
			for _, chunkBuf := range []int{7, 64, 4096} {
				pi := ParallelIndexer{Workers: 3, Grain: 128}
				got, err := pi.SplitsRange(opener.open, int64(len(data)), grain, chunkBuf)
				if err != nil {
					t.Fatalf("grain=%d buf=%d on %q: %v", grain, chunkBuf, data, err)
				}
				if !int64sEqual(got, want) {
					t.Fatalf("grain=%d buf=%d on %q:\n got %v\nwant %v", grain, chunkBuf, data, got, want)
				}
			}
		}
	}
}

// TestSplitsRangeErrorText: worker IO errors surface with the failing chunk's
// byte range in the text, exactly once.
func TestSplitsRangeErrorText(t *testing.T) {
	data := bytes.Repeat([]byte(`{"a":1}`+"\n"), 64) // 512 bytes
	opener := &bytesRangeOpener{data: data, failAt: 300, failMsg: "disk gone"}
	pi := ParallelIndexer{Workers: 4, Grain: 128}
	_, err := pi.SplitsRange(opener.open, int64(len(data)), 0, 64)
	if err == nil {
		t.Fatal("expected an error from the failing range reader")
	}
	if got := err.Error(); !strings.Contains(got, "parallel index: chunk [256:384)") || !strings.Contains(got, "disk gone") {
		t.Fatalf("error text = %q, want the failing chunk range and the cause", got)
	}
}

// TestParallelIndexerConcurrent: one shared indexer value must serve many
// goroutines at once. Run under -race.
func TestParallelIndexerConcurrent(t *testing.T) {
	data := bytes.Repeat([]byte(`{"k":"v\n","n":[1,2,3]}`+"\n"), 500)
	want := sequentialSplits(data, 64)
	pi := ParallelIndexer{Workers: 4, Grain: 256}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 5; i++ {
				if got := pi.Splits(data, 64); !int64sEqual(got, want) {
					done <- fmt.Errorf("diverging splits: %v vs %v", got, want)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzSpeculativeIndex is the differential fuzz target of the speculative
// parallel indexer: for fuzzer-chosen data, worker count, chunk grain and
// split grain, the parallel splitter must reproduce the sequential
// BoundaryScanner exactly, and the stitched bitmap stream must equal the
// sequential IndexBlock stream block for block (any divergence is reported
// with the offending block's masks in the failure text). The streaming
// range path is cross-checked too, with its error text asserted clean.
// Committed seeds cover odd-backslash runs and quotes straddling worker
// boundaries; `make fuzz-smoke` runs the target briefly.
func FuzzSpeculativeIndex(f *testing.F) {
	f.Add([]byte(`{"k":"`+strings.Repeat(`\`, 63)+`n"}`+"\n{}\n"), byte(2), byte(0), byte(1))
	f.Add([]byte(`{"open":"abc`+"\n\n"+`def"}`+"\n"), byte(3), byte(1), byte(0))
	f.Add([]byte(strings.Repeat(`{"q":"\""}`+"\n", 30)), byte(8), byte(0), byte(2))
	f.Add([]byte(strings.Repeat(`\`, 130)+"\"\n[]\n"), byte(2), byte(2), byte(0))
	f.Fuzz(func(t *testing.T, data []byte, wSel, cSel, gSel byte) {
		workersChoices := []int{1, 2, 3, 4, 8}
		chunkChoices := []int64{64, 128, 192, 1024}
		grainChoices := []int64{0, 1, 64, 4096}
		pi := ParallelIndexer{
			Workers: workersChoices[int(wSel)%len(workersChoices)],
			Grain:   chunkChoices[int(cSel)%len(chunkChoices)],
		}
		grain := grainChoices[int(gSel)%len(grainChoices)]

		want := sequentialSplits(data, grain)
		if got := pi.Splits(data, grain); !int64sEqual(got, want) {
			t.Fatalf("parallel splits diverge (workers=%d chunk=%d grain=%d):\n got %v\nwant %v",
				pi.Workers, pi.Grain, grain, got, want)
		}

		opener := &bytesRangeOpener{data: data, failAt: -1}
		got, err := pi.SplitsRange(opener.open, int64(len(data)), grain, 64)
		if err != nil {
			t.Fatalf("SplitsRange error: %v", err)
		}
		if !int64sEqual(got, want) {
			t.Fatalf("range splits diverge:\n got %v\nwant %v", got, want)
		}

		masks := sequentialMasks(data)
		i := 0
		err = pi.Scan(data, func(off int64, m BlockMasks) error {
			if i >= len(masks) || m != masks[i] {
				return fmt.Errorf("block %d (offset %d):\n got %+v\nwant masks[%d] of %d", i, off, m, i, len(masks))
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatalf("parallel bitmaps diverge (workers=%d chunk=%d): %v", pi.Workers, pi.Grain, err)
		}
		if i != len(masks) {
			t.Fatalf("parallel scan visited %d blocks, want %d", i, len(masks))
		}
	})
}
