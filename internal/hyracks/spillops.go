package hyracks

import (
	"io"
	"math/bits"

	"vxq/internal/frame"
	"vxq/internal/spill"
)

// This file holds the plumbing the out-of-core operators share: the spill
// configuration carried on TaskCtx, the depth-rotated partition routing,
// spillParts — a lazily created set of partition writers at one recursion
// depth — and the grace-hash wave loop built on it: a wave consumes records
// into an operator's table, grows child partitions only if the table
// overflows, and is finished by replaying each child run as a wave one level
// down. A wave that never overflows is the in-memory operator. The operators'
// per-record step and per-wave finish (grace-hash group-by and join) and the
// external merge sort live in ops.go and join.go.

const (
	// defaultSpillFanout is the partition fan-out of one grace-hash spill
	// wave when Env.SpillPartitions is unset.
	defaultSpillFanout = 8
	// maxSpillDepth bounds grace-hash recursion. A partition still over
	// budget at this depth (pathological key skew or a hash that no rotation
	// can split) is finished in memory — correctness never depends on the
	// budget holding.
	maxSpillDepth = 6
)

// Spill record tags: raw is an unmodified input tuple; partial is a flushed
// group — key fields first, then one item.EncodeSeq'd aggregate snapshot per
// aggregate. Within any one partition file every partial precedes every raw
// record for its key, so replaying a file merges state in original arrival
// order and float accumulation stays bit-identical to the in-memory path.
const (
	spillTagRaw     byte = 0
	spillTagPartial byte = 1
)

func (c *TaskCtx) spillFanout() int {
	if c.SpillFanout > 0 {
		return c.SpillFanout
	}
	return defaultSpillFanout
}

// spillBlockSize sizes one spill stream's buffer so that a full fan-out of
// writers stays well inside the operator budget.
func (c *TaskCtx) spillBlockSize() int {
	bs := spill.DefaultBlockSize
	if c.SpillBudget > 0 {
		if per := int(c.SpillBudget) / (2 * c.spillFanout()); per < bs {
			bs = per
		}
	}
	if bs < spill.MinBlockSize {
		bs = spill.MinBlockSize
	}
	return bs
}

// releaseHold returns previously hold-charged bytes to the accountant before
// Close: the out-of-core operators free their tables (and run buffers)
// mid-run when they spill, which is the whole point of spilling.
func (c *TaskCtx) releaseHold(n int64) {
	if c.RT != nil && c.RT.Accountant != nil && n != 0 {
		c.RT.Accountant.Release(n)
	}
}

// spillCounts are one operator's spill counters: bytes written to spill
// files, partition files (or sort runs) produced, and grace-hash waves (or
// sort-run flushes) taken.
type spillCounts struct{ bytes, parts, waves int64 }

func (s spillCounts) profExtras(x *opExtras) {
	x.spilledBytes = s.bytes
	x.spillPartitions = s.parts
	x.spillWaves = s.waves
}

// addSpillStats folds an operator's spill counters into the task stats (the
// operators call it from deferred Close blocks so failed jobs count too).
func (c *TaskCtx) addSpillStats(s spillCounts) {
	if c.RT == nil || c.RT.Stats == nil {
		return
	}
	st := c.RT.Stats
	st.SpilledBytes += s.bytes
	st.SpillPartitions += s.parts
	st.SpillWaves += s.waves
}

// spillRoute maps a key hash to a partition at the given recursion depth.
// Each depth looks at a rotated window of the same 64-bit hash, so a
// partition that overflows re-splits on fresh bits instead of collapsing
// into one child again.
func spillRoute(h uint64, depth, fanout int) int {
	if r := uint(depth*21) % 64; r != 0 {
		h = bits.RotateLeft64(h, -int(r))
	}
	return int(h % uint64(fanout))
}

// spillParts is one wave of grace-hash partition writers. Writers are created
// on first use (empty partitions cost nothing), their block buffers are
// charged to the accountant while open, and finish/abort is idempotent so an
// operator can always clean up from a deferred block. Bytes written and
// partitions sealed are counted into the owning operator's spillCounts.
type spillParts struct {
	ctx     *TaskCtx
	depth   int
	bsize   int
	ws      []*spill.Writer
	counts  *spillCounts
	charged int64
	done    bool
}

func newSpillParts(ctx *TaskCtx, depth int, counts *spillCounts) *spillParts {
	return &spillParts{ctx: ctx, depth: depth, bsize: ctx.spillBlockSize(),
		ws: make([]*spill.Writer, ctx.spillFanout()), counts: counts}
}

// write routes one record by its key hash.
func (s *spillParts) write(h uint64, tag byte, fields [][]byte) error {
	return s.writeTo(spillRoute(h, s.depth, len(s.ws)), tag, fields)
}

// writeTo appends one record to an explicit partition — the join probe side
// uses it to mirror the build side's routing and to skip partitions with no
// build data.
func (s *spillParts) writeTo(p int, tag byte, fields [][]byte) error {
	w := s.ws[p]
	if w == nil {
		var err error
		w, err = spill.NewWriter(s.ctx.SpillDir, s.bsize)
		if err != nil {
			return err
		}
		s.ws[p] = w
		s.ctx.accountHold(int64(s.bsize))
		s.charged += int64(s.bsize)
	}
	n, err := w.Write(tag, fields)
	s.counts.bytes += int64(n)
	return err
}

// finish seals every active writer, releasing the buffer charges. The
// returned slice is indexed by partition; empty partitions are nil. On error
// all files (sealed or not) are removed.
func (s *spillParts) finish() ([]*spill.Run, error) {
	if s.done {
		return nil, nil
	}
	s.done = true
	defer s.releaseCharge()
	runs := make([]*spill.Run, len(s.ws))
	var firstErr error
	for i, w := range s.ws {
		if w == nil {
			continue
		}
		if firstErr != nil {
			w.Abort()
			continue
		}
		r, err := w.Finish()
		if err != nil {
			firstErr = err
			spill.RemoveRuns(runs)
			continue
		}
		runs[i] = r
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for _, r := range runs {
		if r != nil {
			s.counts.parts++
		}
	}
	return runs, nil
}

// abort discards every active writer and its file.
func (s *spillParts) abort() {
	if s.done {
		return
	}
	s.done = true
	for _, w := range s.ws {
		if w != nil {
			w.Abort()
		}
	}
	s.releaseCharge()
}

func (s *spillParts) releaseCharge() {
	s.ctx.releaseHold(s.charged)
	s.charged = 0
}

// wave is one level of grace-hash processing: depth 0 consumes the
// operator's input, depth d >= 1 replays a run written by depth d-1. child
// is nil while the wave's table fits in memory and is created by split the
// moment it does not; it routes on the wave's own depth.
type wave struct {
	depth int
	child *spillParts
}

// overflows reports whether the wave must go out of core now: its table holds
// more than budget and partitioning can still help — recursion is bounded,
// and a table of one unit (a single group; one join hash bucket) cannot be
// split by hash at all.
func (w *wave) overflows(budget, held int64, units int) bool {
	return budget > 0 && held > budget && w.depth < maxSpillDepth && units > 1
}

// split creates the wave's child partitions; the caller flushes its table
// into them.
func (w *wave) split(ctx *TaskCtx, counts *spillCounts) *spillParts {
	counts.waves++
	w.child = newSpillParts(ctx, w.depth, counts)
	return w.child
}

// seal finishes the child partitions and returns their runs, indexed by
// partition.
func (w *wave) seal() ([]*spill.Run, error) {
	runs, err := w.child.finish()
	w.child = nil
	return runs, err
}

// abort discards the child partitions of a wave cut short by an error.
func (w *wave) abort() {
	if w.child != nil {
		w.child.abort()
		w.child = nil
	}
}

// replayRun streams a sealed run's records through each, holding one block
// buffer on the accountant while the reader is open. The tuple view (and the
// fields behind it) alias the reader's block and are valid only until each
// returns.
func replayRun(ctx *TaskCtx, run *spill.Run, each func(tag byte, lt *frame.LazyTuple) error) error {
	rd, err := run.Open()
	if err != nil {
		return err
	}
	defer rd.Close()
	defer ctx.account(int64(ctx.spillBlockSize()))()
	var lt frame.LazyTuple
	for {
		tag, fields, err := rd.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		lt.Reset(fields)
		if err := each(tag, &lt); err != nil {
			return err
		}
	}
}

// drainRuns reduces sealed partition sets (indexed alike) one partition at a
// time. each runs for every partition present in all sets — a join needs both
// sides, and a partition missing from either produces nothing — and the
// partition's files are removed as soon as it is done; the deferred sweep
// removes the rest when an error cuts the drain short.
func drainRuns(each func(p int) error, sets ...[]*spill.Run) error {
	defer func() {
		for _, runs := range sets {
			spill.RemoveRuns(runs)
		}
	}()
	for p := range sets[0] {
		present := true
		for _, runs := range sets {
			present = present && runs[p] != nil
		}
		if present {
			if err := each(p); err != nil {
				return err
			}
		}
		for _, runs := range sets {
			runs[p].Remove()
			runs[p] = nil
		}
	}
	return nil
}

// chainKeyHash combines already-encoded key fields exactly like
// keyEncoder.resolve does, so a partial record (whose original raw tuple is
// gone) routes and buckets identically to the raw tuples of its key.
func chainKeyHash(fields [][]byte) (uint64, error) {
	var h uint64 = 1469598103934665603
	for _, f := range fields {
		hf, err := hashEncodedField(f)
		if err != nil {
			return 0, err
		}
		h = h*1099511628211 ^ hf
	}
	return h, nil
}
