// Speculative parallel structural indexing: the Pison-style answer to the
// one bottleneck the two-phase design leaves on a single huge file — phase 1
// itself is a sequential pass, so a cold first scan of one 64 MiB-class file
// is stuck at one core while every morsel worker waits behind it.
//
// The input is split into N contiguous chunks (64-byte aligned, so worker
// blocks line up with the sequential block stream) and each worker runs the
// phase-1 SWAR pass from its chunk start in an unknown scanner state. Two
// bits of state cross a chunk boundary, and they are recovered differently:
//
//   - The escape-pending bit is resolvable *locally*: the byte at a chunk
//     start is escaped iff the maximal backslash run ending just before it
//     has odd length. The first backslash of a maximal run is never itself
//     escaped (the byte before it is not a backslash, and an escape reaches
//     exactly one byte), so the run's parity alone decides — no upstream
//     state needed, just a backward scan over the preceding backslashes.
//
//   - The in-string parity is *speculated both ways at once*. The in-string
//     mask is linear in the entry parity: it is computed per block as
//     prefixXor(unescapedQuotes) XOR carry, and flipping the entry parity
//     flips the carry into every downstream block, i.e. complements the
//     whole mask. One pass under the outside-a-string assumption therefore
//     yields both candidate streams — the parity-true candidate is the
//     bitwise complement — so "speculating both parities" costs one pass,
//     not two.
//
// Stitching is sequential but O(#chunks): each chunk reports whether it
// contains an odd number of unescaped quotes (its parity flip); a prefix XOR
// over those flips gives every chunk's true entry parity, which selects the
// correct speculation and discards the other. The stitched output is
// byte-identical to the sequential builder's, and the heavy per-byte work is
// O(filesize / workers) wall-clock.
package jsonparse

import (
	"fmt"
	"io"
	"math/bits"
	goruntime "runtime"
	"sync"
)

// DefaultParallelGrain is the minimum chunk size of the speculative parallel
// indexer. Below it the per-chunk fixed costs (goroutine handoff, boundary
// resolution, stitch bookkeeping) rival the SWAR pass itself, so inputs
// smaller than two grains are not worth splitting.
const DefaultParallelGrain int64 = 1 << 20

// ParallelIndexer builds phase-1 structural-index products of a whole input
// with speculative chunk workers. The zero value is ready to use: one worker
// per CPU, DefaultParallelGrain chunks. The struct is stateless and safe to
// share; every method is safe for concurrent use.
type ParallelIndexer struct {
	// Workers is the number of chunk workers (GOMAXPROCS when <= 0).
	Workers int
	// Grain is the minimum chunk size in bytes, rounded down to a multiple
	// of 64 (DefaultParallelGrain when <= 0; floor 64).
	Grain int64
}

func (pi ParallelIndexer) workers() int {
	if pi.Workers > 0 {
		return pi.Workers
	}
	return goruntime.GOMAXPROCS(0)
}

func (pi ParallelIndexer) grain() int64 {
	g := pi.Grain
	if g <= 0 {
		g = DefaultParallelGrain
	}
	if g < 64 {
		return 64
	}
	return g &^ 63
}

// chunkStarts cuts n bytes into at most workers() chunks of at least grain()
// bytes each, every boundary a multiple of 64. The returned offsets are the
// chunk starts plus a final n: chunk k is [starts[k], starts[k+1]).
func (pi ParallelIndexer) chunkStarts(n int64) []int64 {
	g := pi.grain()
	chunks := (n + g - 1) / g
	if w := int64(pi.workers()); chunks > w {
		chunks = w
	}
	if chunks < 1 {
		chunks = 1
	}
	per := ((n+chunks-1)/chunks + 63) &^ 63
	starts := make([]int64, 0, chunks+1)
	for off := int64(0); off < n; off += per {
		starts = append(starts, off)
	}
	if len(starts) == 0 {
		starts = append(starts, 0)
	}
	return append(starts, n)
}

// entryEscaped reports whether the byte at off is escaped: whether the
// maximal backslash run ending at off-1 has odd length. This is the local
// resolution of the escape-pending bit (see the package comment): a maximal
// run's first backslash is never itself escaped, so parity decides.
func entryEscaped(buf []byte, off int64) bool {
	n := int64(0)
	for off-n > 0 && buf[off-n-1] == '\\' {
		n++
	}
	return n&1 == 1
}

// entryEscapedRange resolves the same bit against a range-readable file: it
// reads a small window ending at off and scans it backward, doubling the
// window in the (pathological) case that it is backslashes wall to wall.
func entryEscapedRange(open func(off int64) (io.ReadCloser, error), off int64, scratch []byte) (bool, error) {
	if off == 0 {
		return false, nil
	}
	lookback := int64(64)
	for {
		lo := off - lookback
		if lo < 0 {
			lo = 0
		}
		w := scratch
		if int64(len(w)) < off-lo {
			w = make([]byte, off-lo)
		}
		w = w[:off-lo]
		rc, err := open(lo)
		if err != nil {
			return false, err
		}
		_, err = io.ReadFull(rc, w)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return false, err
		}
		run := int64(0)
		for run < int64(len(w)) && w[len(w)-1-int(run)] == '\\' {
			run++
		}
		if run == int64(len(w)) && lo > 0 {
			lookback *= 2
			continue
		}
		return run&1 == 1, nil
	}
}

// gridAfter returns the smallest grid point strictly beyond a recorded start
// (the BoundaryScanner advancement rule): the next multiple of grain, or
// start+1 when grain is 0 (record everything).
func gridAfter(start, grain int64) int64 {
	if grain == 0 {
		return start + 1
	}
	return (start/grain + 1) * grain
}

// specScanner is the streaming speculative phase-1 scanner of one chunk: fed
// the chunk's bytes in order (any write sizes), it carries the SWAR scanner
// state under the outside-a-string assumption and collects the record-start
// candidates of BOTH parities, pre-filtered to the split grain.
//
// The per-chunk filter runs the BoundaryScanner sampling rule with its grid
// cursor reset to zero at the chunk start. That keeps a superset of what the
// global rule would record here (an earlier cursor only ever records
// earlier starts, and recording a start moves the cursor to the same next
// grid point the global rule would use), and the superset is exactly what
// the stitch needs: re-running the global rule over the concatenated
// surviving candidates reproduces the sequential output, while per-chunk
// memory stays O(chunkSize/grain), not O(newlines).
type specScanner struct {
	st    StructState
	off   int64 // absolute offset of the next block's first byte
	grain int64
	next  [2]int64   // per-parity local grid cursor (0 = keep the first candidate)
	cands [2][]int64 // candidate record starts: [0] outside-string entry, [1] inside
	tail  [64]byte   // partial block carried between writes
	ntail int
}

// newSpecScanner starts a speculative scan of a chunk beginning at absolute
// offset base, with the locally resolved escape-pending bit.
func newSpecScanner(base int64, escaped bool, grain int64) *specScanner {
	s := &specScanner{off: base, grain: grain}
	if escaped {
		s.st.prevEscaped = 1
	}
	return s
}

// Write feeds the next bytes of the chunk. It never fails; the error is for
// io.Writer conformance.
func (s *specScanner) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if s.ntail > 0 || len(p) < 64 {
			c := copy(s.tail[s.ntail:], p)
			s.ntail += c
			p = p[c:]
			if s.ntail == 64 {
				s.block(s.tail[:])
				s.ntail = 0
			}
			continue
		}
		s.block(p[:64])
		p = p[64:]
	}
	return n, nil
}

// Close flushes the partial final block, zero-padded exactly like
// BoundaryScanner.Close (zero bytes are never newlines, so padding adds no
// candidates).
func (s *specScanner) Close() {
	if s.ntail > 0 {
		for i := s.ntail; i < 64; i++ {
			s.tail[i] = 0
		}
		s.block(s.tail[:])
		s.ntail = 0
	}
}

// flip reports whether the chunk contained an odd number of unescaped
// quotes: whether its exit parity differs from its entry parity. Call after
// Close.
func (s *specScanner) flip() bool { return s.st.prevInString != 0 }

func (s *specScanner) block(b []byte) {
	var r rawMasks
	classifyBlock(b, &r)
	escaped := s.st.findEscaped(r.bslash)
	inStr0 := prefixXor(r.quote&^escaped) ^ s.st.prevInString
	s.st.prevInString = uint64(int64(inStr0) >> 63)
	// Newline-outside-string under each speculation: parity 1's in-string
	// mask is the complement of parity 0's, so its newline mask is the
	// other half of the raw newline bits.
	nl := [2]uint64{r.nl &^ inStr0, r.nl & inStr0}
	for p := 0; p < 2; p++ {
		m := nl[p]
		for m != 0 {
			i := bits.TrailingZeros64(m)
			m &= m - 1
			start := s.off + int64(i) + 1
			if start < s.next[p] {
				continue
			}
			s.cands[p] = append(s.cands[p], start)
			s.next[p] = gridAfter(start, s.grain)
		}
	}
	s.off += 64
}

// stitchSplits resolves every chunk's entry parity (a prefix XOR over the
// flips), selects each chunk's surviving candidate stream, and re-runs the
// global sampling rule over the concatenation — the sequential
// BoundaryScanner output, reproduced from speculative pieces.
func stitchSplits(scanners []*specScanner, grain int64) []int64 {
	var out []int64
	parity := false
	next := gridAfter(0, grain) // first unsatisfied grid point: grain, or 1 when grain==0
	for _, sc := range scanners {
		sel := 0
		if parity {
			sel = 1
		}
		for _, start := range sc.cands[sel] {
			if start < next {
				continue
			}
			out = append(out, start)
			next = gridAfter(start, grain)
		}
		parity = parity != sc.flip()
	}
	return out
}

// Splits computes the record-start offsets of an in-memory buffer — exactly
// the output of a sequential BoundaryScanner with the same grain fed the
// whole buffer — using speculative chunk workers. Negative grains are
// treated as 0 (every record start).
func (pi ParallelIndexer) Splits(buf []byte, grain int64) []int64 {
	if len(buf) == 0 {
		return nil
	}
	if grain < 0 {
		grain = 0
	}
	starts := pi.chunkStarts(int64(len(buf)))
	nchunks := len(starts) - 1
	scanners := make([]*specScanner, nchunks)
	var wg sync.WaitGroup
	for k := 0; k < nchunks; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lo, hi := starts[k], starts[k+1]
			sc := newSpecScanner(lo, entryEscaped(buf, lo), grain)
			sc.Write(buf[lo:hi])
			sc.Close()
			scanners[k] = sc
		}(k)
	}
	wg.Wait()
	return stitchSplits(scanners, grain)
}

// SplitsRange computes Splits against a range-readable file of size bytes
// without ever materializing it: each worker streams its chunk through a
// chunkBuf-sized refill buffer (DefaultChunkSize when <= 0), and resolves
// its entry escape bit with a small tail read of the preceding bytes. open
// must return a reader positioned at the given offset (the
// shape of runtime.Source.OpenRange) and must be safe for concurrent calls.
func (pi ParallelIndexer) SplitsRange(open func(off int64) (io.ReadCloser, error), size, grain int64, chunkBuf int) ([]int64, error) {
	if size <= 0 {
		return nil, nil
	}
	if grain < 0 {
		grain = 0
	}
	if chunkBuf <= 0 {
		chunkBuf = DefaultChunkSize
	}
	starts := pi.chunkStarts(size)
	nchunks := len(starts) - 1
	scanners := make([]*specScanner, nchunks)
	errs := make([]error, nchunks)
	var wg sync.WaitGroup
	for k := 0; k < nchunks; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lo, hi := starts[k], starts[k+1]
			buf := make([]byte, chunkBuf)
			escaped, err := entryEscapedRange(open, lo, buf)
			if err != nil {
				errs[k] = fmt.Errorf("parallel index: resolving escape state at %d: %w", lo, err)
				return
			}
			sc := newSpecScanner(lo, escaped, grain)
			rc, err := open(lo)
			if err != nil {
				errs[k] = fmt.Errorf("parallel index: chunk [%d:%d): %w", lo, hi, err)
				return
			}
			left := hi - lo
			for left > 0 {
				n := int64(len(buf))
				if n > left {
					n = left
				}
				read, err := io.ReadFull(rc, buf[:n])
				if read > 0 {
					sc.Write(buf[:read])
					left -= int64(read)
				}
				if err != nil {
					errs[k] = fmt.Errorf("parallel index: chunk [%d:%d): %w", lo, hi, err)
					break
				}
			}
			if cerr := rc.Close(); cerr != nil && errs[k] == nil {
				errs[k] = fmt.Errorf("parallel index: chunk [%d:%d): %w", lo, hi, cerr)
			}
			sc.Close()
			scanners[k] = sc
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return stitchSplits(scanners, grain), nil
}

// specBlock is the both-parity candidate index of one 64-byte block: the raw
// character classes plus the resolved escape mask and the parity-false
// in-string mask. The parity-true candidate is its complement (the linearity
// argument in the package comment), so one stored stream carries both
// speculations.
type specBlock struct {
	raw     rawMasks
	escaped uint64
	inStr0  uint64
}

// masks finalizes the block under the stitched entry parity.
func (b specBlock) masks(flip bool) BlockMasks {
	inStr := b.inStr0
	if flip {
		inStr = ^inStr
	}
	return b.raw.derive(b.escaped, inStr)
}

// Scan runs the speculative pass over an in-memory buffer and calls visit
// for every 64-byte block, in file order from the calling goroutine, with
// masks byte-identical to a sequential IndexBlock pass over the same bytes
// (the final partial block zero-padded). If visit returns an error the walk
// stops and Scan returns that error.
//
// The candidate streams of all chunks are materialized before visitation
// (~1.25 bytes per input byte), which is what "keep both speculations until
// the stitch selects one" means for full bitmaps; consumers that only need
// record boundaries use Splits, whose per-chunk state is O(chunk/grain).
func (pi ParallelIndexer) Scan(buf []byte, visit func(off int64, m BlockMasks) error) error {
	if len(buf) == 0 {
		return nil
	}
	starts := pi.chunkStarts(int64(len(buf)))
	nchunks := len(starts) - 1
	chunks := make([][]specBlock, nchunks)
	flips := make([]bool, nchunks)
	var wg sync.WaitGroup
	for k := 0; k < nchunks; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lo, hi := starts[k], starts[k+1]
			st := StructState{}
			if entryEscaped(buf, lo) {
				st.prevEscaped = 1
			}
			blocks := make([]specBlock, 0, (hi-lo+63)/64)
			for off := lo; off < hi; off += 64 {
				var b []byte
				if hi-off >= 64 {
					b = buf[off : off+64]
				} else {
					var pad [64]byte
					copy(pad[:], buf[off:hi])
					b = pad[:]
				}
				var r rawMasks
				classifyBlock(b, &r)
				escaped := st.findEscaped(r.bslash)
				inStr0 := prefixXor(r.quote&^escaped) ^ st.prevInString
				st.prevInString = uint64(int64(inStr0) >> 63)
				blocks = append(blocks, specBlock{raw: r, escaped: escaped, inStr0: inStr0})
			}
			chunks[k] = blocks
			flips[k] = st.prevInString != 0
		}(k)
	}
	wg.Wait()
	parity := false
	for k := 0; k < nchunks; k++ {
		off := starts[k]
		for _, sb := range chunks[k] {
			if err := visit(off, sb.masks(parity)); err != nil {
				return err
			}
			off += 64
		}
		parity = parity != flips[k]
	}
	return nil
}
