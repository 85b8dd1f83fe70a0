package hyracks

import (
	"errors"
	"io"
	"regexp"
	goruntime "runtime"
	"testing"
	"testing/iotest"
	"time"

	"vxq/internal/frame"
	"vxq/internal/runtime"
)

// readerSource serves a MemSource's documents through readers that wrap
// shapes: it sees the file and the offset a reader starts at.
type readerSource struct {
	*runtime.MemSource
	wrap func(file string, offset int64, r io.Reader) io.Reader
}

func (s readerSource) Open(path string) (io.ReadCloser, error) { return s.OpenRange(path, 0) }

func (s readerSource) OpenRange(path string, offset int64) (io.ReadCloser, error) {
	rc, err := s.MemSource.OpenRange(path, offset)
	if err != nil {
		return nil, err
	}
	return struct {
		io.Reader
		io.Closer
	}{s.wrap(path, offset, rc), rc}, nil
}

// shortReadDocs are files whose records straddle 1 KiB and 4 KiB morsel
// cuts, with escapes, a file without newlines and lines that end on cuts.
func shortReadDocs() map[string][]byte {
	return map[string][]byte{
		"many.json":    ndSensorFile(60, 100),
		"bigrec.json":  ndSensorFile(4, 3000),
		"oneline.json": bigSensorFile(6 << 10),
		"escaped.json": escapedNewlineFile(20),
		"cuts.json":    fixedLinesFile(24, 256),
	}
}

// TestShortReadsMatchPlainScan: a source whose reads return one byte, or
// half of what was asked, yields the rows of the plain scan at every morsel
// size, partition count and scheduler.
func TestShortReadsMatchPlainScan(t *testing.T) {
	docs := shortReadDocs()
	mem := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	want := referenceItems(t, docs, measurementsPath())
	for name, shape := range map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	} {
		src := readerSource{MemSource: mem, wrap: func(_ string, _ int64, r io.Reader) io.Reader { return shape(r) }}
		for _, ms := range []int64{1 << 10, 4 << 10} {
			for _, parts := range []int{1, 3} {
				env := func() *Env { return &Env{Source: src, MorselSize: ms} }
				got := resultItems(runBoth(t, scanJob(parts, measurementsPath()), env))
				if len(got) != len(want) {
					t.Fatalf("%s morsel=%d parts=%d: %d items, want %d", name, ms, parts, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s morsel=%d parts=%d: item %d = %s, want %s", name, ms, parts, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestFailingReadNamesMorsel: a read that fails in the middle of a morsel
// fails the query with an error naming the file and the morsel's byte
// range; the accountant returns to 0 and no goroutine is left behind, on
// both schedulers.
func TestFailingReadNamesMorsel(t *testing.T) {
	docs := shortReadDocs()
	mem := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	errDisk := errors.New("disk gone")
	src := readerSource{MemSource: mem, wrap: func(file string, offset int64, r io.Reader) io.Reader {
		if file != "/sensors/many.json" || offset == 0 {
			return r
		}
		// 100 bytes into a non-first morsel, the device fails.
		return io.MultiReader(io.LimitReader(iotest.HalfReader(r), 100), iotest.ErrReader(errDisk))
	}}
	named := regexp.MustCompile(`/sensors/many\.json\[\d+:\d+\): .*disk gone`)
	base := goruntime.NumGoroutine()
	for _, staged := range []bool{false, true} {
		for _, parts := range []int{1, 3} {
			acct := frame.NewAccountant(0)
			run := RunPipelined
			if staged {
				run = RunStaged
			}
			res, err := run(scanJob(parts, measurementsPath()), &Env{Source: src, Accountant: acct, MorselSize: 1 << 10})
			if err == nil {
				t.Fatalf("staged=%v parts=%d: failing read returned %d rows and no error", staged, parts, len(res.Rows))
			}
			if !named.MatchString(err.Error()) {
				t.Errorf("staged=%v parts=%d: error does not name the morsel: %v", staged, parts, err)
			}
			if !errors.Is(err, errDisk) {
				t.Errorf("staged=%v parts=%d: error does not wrap the read failure: %v", staged, parts, err)
			}
			if cur := acct.Current(); cur != 0 {
				t.Errorf("staged=%v parts=%d: accountant balance = %d after the failure, want 0", staged, parts, cur)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the failed queries, %d before", n, base)
	}
}
