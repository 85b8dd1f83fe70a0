// Package hyracks implements the dataflow execution engine underneath the
// query processor, modeled on the Hyracks platform (Borkar et al., ICDE
// 2011) that Apache VXQuery runs on: push-based physical operators exchange
// fixed-size frames of serialized tuples; jobs are DAGs of operator chains
// ("fragments") connected by exchange connectors; each fragment runs in a
// number of partitions.
//
// One runner (runJob, exec.go) executes a job under either of two
// schedulers: every fragment-partition task is built and driven by the same
// code, and only the scan-morsel deal, how a task is started and the exchange
// link differ. The pipelined scheduler (RunPipelined) starts every task as a
// goroutine over bounded channel links, like Hyracks' pipelined connectors.
// The staged scheduler (RunStaged) runs tasks one after another over
// materialized links and so records clean per-task wall-clock work and
// per-operator self times, free of time spent waiting on other tasks: that
// is what the query profile (vxq -profile) and the benchmark's traced ladder
// run attribute the wall clock with.
package hyracks

import (
	"fmt"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// Writer is the push-based operator interface (Hyracks' IFrameWriter):
// Open once, Push any number of frames, Close once. Any error aborts the
// task.
type Writer interface {
	Open() error
	Push(fr *frame.Frame) error
	Close() error
}

// TaskCtx is the per-partition execution context.
type TaskCtx struct {
	RT        *runtime.Ctx
	Partition int
	// Pool recycles output frames across operators and tasks (may be nil,
	// in which case default-size frames are plainly allocated and never
	// returned).
	Pool *frame.Pool
	// SpillDir, SpillBudget and SpillFanout configure the out-of-core layer
	// (copied from Env.SpillDir / Env.OpMemoryBudget / Env.SpillPartitions).
	// With SpillBudget 0 the blocking operators never spill.
	SpillDir    string
	SpillBudget int64
	SpillFanout int
	// morsels is the scan work queue shared by the fragment's tasks (nil for
	// non-scan fragments and for fragments run outside the runner).
	morsels *morselQueue
	// MorselsScanned counts the morsels this task processed.
	MorselsScanned int
	// MorselsStolen counts how many of those morsels were steals: taken off
	// another partition's static round-robin share by the shared cursor.
	MorselsStolen int
	// prof is this task's profile accumulator (nil unless Env.Profile).
	// It is owned by the task's goroutine alone — per-worker collection with
	// no shared-mutable state; the runner merges finished tasks at job end.
	prof *taskProf
}

// newFrame obtains an empty output frame, recycled when a pool is present.
// Ownership rule (see DESIGN.md): ownership transfers with Push, and the
// receiver — the operator or sink that consumed the frame's tuples — returns
// it with recycle.
func (c *TaskCtx) newFrame() *frame.Frame {
	if c.Pool != nil {
		return c.Pool.Get()
	}
	return frame.New(frame.DefaultFrameSize)
}

// recycle returns a consumed frame to the pool (a no-op without one).
func (c *TaskCtx) recycle(f *frame.Frame) {
	if c.Pool != nil {
		c.Pool.Put(f)
	}
}

// account charges n bytes to the accountant while f runs.
func (c *TaskCtx) account(n int64) func() {
	if c.RT == nil || c.RT.Accountant == nil || n == 0 {
		return func() {}
	}
	c.RT.Accountant.Allocate(n)
	return func() { c.RT.Accountant.Release(n) }
}

// frameBuilder accumulates output tuples into frames and pushes full frames
// downstream. It is the standard tail of every operator implementation. The
// current frame is obtained lazily from the pool on the first emit (so the
// idle builders of a wide hash exchange hold nothing) and ownership passes
// downstream with each Push.
type frameBuilder struct {
	ctx *TaskCtx
	out Writer
	fr  *frame.Frame
}

func newFrameBuilder(ctx *TaskCtx, out Writer) *frameBuilder {
	return &frameBuilder{ctx: ctx, out: out}
}

func (b *frameBuilder) emit(fields [][]byte) error {
	if b.fr == nil {
		b.fr = b.ctx.newFrame()
	}
	if b.fr.AppendTuple(fields) {
		if b.fr.Oversize() {
			// An oversized tuple occupies its own frame; ship it at once.
			return b.flush()
		}
		return nil
	}
	if err := b.flush(); err != nil {
		return err
	}
	b.fr = b.ctx.newFrame()
	if !b.fr.AppendTuple(fields) {
		return fmt.Errorf("hyracks: tuple of %d bytes could not be framed", tupleBytes(fields))
	}
	if b.fr.Oversize() {
		return b.flush()
	}
	return nil
}

func tupleBytes(fields [][]byte) int {
	n := 0
	for _, f := range fields {
		n += len(f)
	}
	return n
}

func (b *frameBuilder) flush() error {
	// nil receiver: an operator closed before its Open ran (a chain torn down
	// after a mid-Open failure) has no builder yet and nothing to flush.
	if b == nil || b.fr == nil {
		return nil
	}
	if b.fr.TupleCount() == 0 {
		b.ctx.recycle(b.fr)
		b.fr = nil
		return nil
	}
	fr := b.fr
	b.fr = nil // ownership moves to the receiver, which recycles it
	return b.out.Push(fr)
}

// discard recycles the builder's pending frame without pushing it. Error
// paths that abandon a builder mid-emit must call it — the pending frame was
// charged at Get and nothing downstream will ever recycle it.
func (b *frameBuilder) discard() {
	if b == nil || b.fr == nil {
		return
	}
	b.ctx.recycle(b.fr)
	b.fr = nil
}

// forEachTuple decodes every tuple of a frame and calls f with its decoded
// field sequences and raw field encodings. Both slices are scratch reused
// from tuple to tuple — a callback that retains them across calls must copy
// the slice (the sequences and bytes inside are only valid as long as the
// frame is). The scratch lives on this call's stack, so nested iteration
// (a subplan pushing an inner frame mid-callback) is safe.
func forEachTuple(fr *frame.Frame, f func(fields []item.Sequence, raw [][]byte) error) error {
	var (
		raw  [][]byte
		seqs []item.Sequence
		err  error
	)
	for i := 0; i < fr.TupleCount(); i++ {
		raw, err = fr.TupleFields(i, raw)
		if err != nil {
			return err
		}
		seqs, err = frame.DecodeFieldsInto(seqs, raw)
		if err != nil {
			return err
		}
		if err := f(seqs, raw); err != nil {
			return err
		}
	}
	return nil
}

// forEachTupleView iterates a frame through a lazy tuple view: fields are
// decoded only when the callback asks for them (and memoized per tuple).
// The view is rebound from tuple to tuple; a callback must not retain it
// across calls (sequences obtained from Field are stable and may be
// retained). The view lives on this call's stack, so nested iteration (a
// subplan pushing an inner frame mid-callback) is safe.
func forEachTupleView(fr *frame.Frame, f func(lt *frame.LazyTuple) error) error {
	var (
		raw [][]byte
		lt  frame.LazyTuple
		err error
	)
	for i := 0; i < fr.TupleCount(); i++ {
		raw, err = fr.TupleFields(i, raw)
		if err != nil {
			return err
		}
		lt.Reset(raw)
		if err := f(&lt); err != nil {
			return err
		}
	}
	return nil
}

// forEachTupleRaw is forEachTuple without the field decode, for consumers
// that only route or copy raw bytes. The raw slice is scratch, as above.
func forEachTupleRaw(fr *frame.Frame, f func(raw [][]byte) error) error {
	var (
		raw [][]byte
		err error
	)
	for i := 0; i < fr.TupleCount(); i++ {
		raw, err = fr.TupleFields(i, raw)
		if err != nil {
			return err
		}
		if err := f(raw); err != nil {
			return err
		}
	}
	return nil
}

// CollectSink is a terminal Writer that materializes every received tuple
// as decoded field sequences. It is used as the job's result collector and
// inside nested-plan (subplan) execution.
type CollectSink struct {
	Rows [][]item.Sequence
}

// Open implements Writer.
func (s *CollectSink) Open() error { return nil }

// Push decodes and stores all tuples of the frame. The fields slice handed
// to the callback is per-frame scratch, so each stored row is a copy; the
// decoded sequences themselves never alias the frame and are safe to keep.
func (s *CollectSink) Push(fr *frame.Frame) error {
	return forEachTuple(fr, func(fields []item.Sequence, _ [][]byte) error {
		s.Rows = append(s.Rows, append([]item.Sequence(nil), fields...))
		return nil
	})
}

// Close implements Writer.
func (s *CollectSink) Close() error { return nil }

// recycleSink wraps a terminal writer that copies everything it needs out of
// each frame during Push (CollectSink and friends), returning the frame to
// the pool afterwards so terminal fragments participate in recycling too.
type recycleSink struct {
	ctx *TaskCtx
	w   Writer
}

func (s recycleSink) Open() error { return s.w.Open() }

func (s recycleSink) Push(fr *frame.Frame) error {
	err := s.w.Push(fr)
	s.ctx.recycle(fr)
	return err
}

func (s recycleSink) Close() error { return s.w.Close() }
