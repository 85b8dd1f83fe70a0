package hyracks

import (
	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/runtime"
	"vxq/internal/spill"
)

// JoinSpec describes an equi hash join. The build side is fully consumed
// into a hash table, then the probe side streams through it. The output
// tuple is the build tuple's fields followed by the probe tuple's fields.
// Non-equi residual predicates are applied by a SELECT placed after the
// join by the compiler.
type JoinSpec struct {
	BuildKeys []runtime.Evaluator
	ProbeKeys []runtime.Evaluator
	Desc      string
}

// joiner is the runtime state of a hash join within one partition.
//
// Both sides work in the encoded domain: keys are resolved to raw encoded
// bytes (keyEncoder), hashed with item.HashEncoded, matched byte-wise with the
// structural EqualEncoded fallback, and build keys are interned in an arena.
type joiner struct {
	ctx    *TaskCtx
	spec   *JoinSpec
	memory int64

	// Profile counters (see profExtras).
	memPeak    int64
	collisions int64

	buildKeys *keyEncoder
	probeKeys *keyEncoder
	table     map[uint64]*joinBucket
	arena     byteArena

	// Out-of-core state (see spillops.go): root is the depth-0 wave the
	// exchanges feed. It grows partitions only if the build table exceeds
	// budget; until then it is the whole in-memory join.
	budget     int64
	root       joinWave
	arenaBytes int64 // cumulative arena reservations across table resets
	spill      spillCounts
	out        [][]byte // scratch: one joined tuple (emit copies what it frames)
}

type joinBucket struct {
	key  [][]byte // arena-interned encoded key fields
	rows []joinRow
	next *joinBucket
}

type joinRow struct {
	raw [][]byte
}

func newJoiner(ctx *TaskCtx, spec *JoinSpec) *joiner {
	return &joiner{
		ctx:       ctx,
		spec:      spec,
		table:     make(map[uint64]*joinBucket),
		buildKeys: newKeyEncoder(spec.BuildKeys),
		probeKeys: newKeyEncoder(spec.ProbeKeys),
		budget:    ctx.SpillBudget,
	}
}

// hold charges sz bytes of retained build-table state (released once by
// release), tracking the high-water for the profiler.
func (j *joiner) hold(sz int64) {
	j.memory += sz
	if j.memory > j.memPeak {
		j.memPeak = j.memory
	}
	j.ctx.accountHold(sz)
}

// profExtras reports the join's counters into the fragment source span. It
// must run before release drops the arena (feedSource calls it right after
// the probe completes).
func (j *joiner) profExtras(x *opExtras) {
	x.memPeak = j.memPeak
	x.hashCollisions = j.collisions
	x.arenaBytes = j.arenaBytes + j.arena.reserved
	j.spill.profExtras(x)
}

// joinWave is one level of the grace-hash join (see wave): the embedded wave
// is the build side. If the build overflowed, endBuild seals its partitions
// into bruns and opens probe-side writers that mirror their routing, and the
// probe input partitions the same way instead of probing.
type joinWave struct {
	wave
	bruns []*spill.Run // sealed build partitions, indexed by partition
	probe *spillParts
}

// abort discards whatever a wave cut short by an error still owns.
func (w *joinWave) abort() {
	w.wave.abort()
	if w.probe != nil {
		w.probe.abort()
		w.probe = nil
	}
	spill.RemoveRuns(w.bruns)
	w.bruns = nil
}

// build feeds one build-side frame to the root wave. The frame arrives from
// an exchange and is consumed here (raw bytes are copied into the table or
// out to a partition), so it is recycled on return.
func (j *joiner) build(fr *frame.Frame) error {
	defer j.ctx.recycle(fr)
	return forEachTupleView(fr, func(lt *frame.LazyTuple) error {
		return j.buildStep(&j.root, lt)
	})
}

// buildStep adds one build tuple to wave w. While the wave is in memory the
// row lands in the hash table. Once the table exceeds budget and can still be
// split, it flushes to the wave's child partitions and every further build
// tuple routes to its partition raw; a wave at max depth, or a table holding
// a single hash bucket, stays in memory — correctness never depends on the
// budget holding.
func (j *joiner) buildStep(w *joinWave, lt *frame.LazyTuple) error {
	kf, h, err := j.buildKeys.resolve(j.ctx, lt)
	if err != nil {
		return err
	}
	if w.child != nil {
		return w.child.write(h, spillTagRaw, lt.Raw())
	}
	if err := j.insertRow(h, kf, lt.Raw()); err != nil {
		return err
	}
	if w.overflows(j.budget, j.memory, len(j.table)) {
		return j.flushTable(w.split(j.ctx, &j.spill))
	}
	return nil
}

// insertRow adds one build row (arena-interning its key on first sight) to
// the table. kf and raw may alias transient buffers — everything retained is
// copied.
func (j *joiner) insertRow(h uint64, kf, raw [][]byte) error {
	b, err := j.lookup(h, kf)
	if err != nil {
		return err
	}
	if b == nil {
		stored := make([][]byte, len(kf))
		for i, f := range kf {
			cp, grew := j.arena.copy(f)
			stored[i] = cp
			if grew > 0 {
				j.hold(grew)
			}
		}
		b = &joinBucket{key: stored, next: j.table[h]}
		j.table[h] = b
	}
	stored := make([][]byte, len(raw))
	for i, f := range raw {
		stored[i] = append([]byte(nil), f...)
	}
	b.rows = append(b.rows, joinRow{raw: stored})
	j.hold(rowHold(raw))
	return nil
}

// flushTable writes every build row back out as a raw record routed by its
// bucket's key hash, then drops the table. A bucket's rows are written
// contiguously in arrival order, so rebuilding a partition preserves per-key
// row order — the only order the join output depends on. The partitions are
// written one after another, and each row's charge is released once it is
// out: the table drains as the partition buffers open, so the flush holds
// about one buffer more than the table, not the table plus a whole fan-out
// of buffers.
func (j *joiner) flushTable(ps *spillParts) error {
	parts := make([][]*joinBucket, len(ps.ws))
	for _, b := range j.table {
		for ; b != nil; b = b.next {
			h, err := chainKeyHash(b.key)
			if err != nil {
				return err
			}
			p := spillRoute(h, ps.depth, len(ps.ws))
			parts[p] = append(parts[p], b)
		}
	}
	for p, buckets := range parts {
		for _, b := range buckets {
			for _, row := range b.rows {
				if err := ps.writeTo(p, spillTagRaw, row.raw); err != nil {
					return err
				}
			}
			sz := rowsHold(b.rows)
			b.rows = nil
			j.memory -= sz
			j.ctx.releaseHold(sz)
		}
	}
	j.resetTable()
	return nil
}

// rowsHold is the charge insertRow took for rows.
func rowsHold(rows []joinRow) int64 {
	var sz int64
	for _, row := range rows {
		sz += rowHold(row.raw)
	}
	return sz
}

// rowHold is the charge of one stored build row: its field bytes plus a
// fixed per-row overhead.
func rowHold(raw [][]byte) int64 {
	var sz int64 = 48
	for _, f := range raw {
		sz += int64(len(f))
	}
	return sz
}

// resetTable drops the build table and returns its held bytes (arena growth
// included — it was charged through hold) to the accountant.
func (j *joiner) resetTable() {
	j.arenaBytes += j.arena.release()
	j.table = make(map[uint64]*joinBucket)
	j.ctx.releaseHold(j.memory)
	j.memory = 0
}

// endBuild runs once a wave's build side is fully consumed. A build that
// never overflowed is already the probe-ready table; one that did seals its
// partitions and opens the probe-side writers that mirror their routing.
func (j *joiner) endBuild(w *joinWave) error {
	if w.child == nil {
		return nil
	}
	runs, err := w.seal()
	if err != nil {
		return err
	}
	w.bruns = runs
	w.probe = newSpillParts(j.ctx, w.depth, &j.spill)
	return nil
}

func (j *joiner) lookup(h uint64, kf [][]byte) (*joinBucket, error) {
	for b := j.table[h]; b != nil; b = b.next {
		ok, err := matchEncodedKey(b.key, kf)
		if err != nil {
			return nil, err
		}
		if ok {
			return b, nil
		}
		j.collisions++ // a chain entry with this hash but a different key
	}
	return nil, nil
}

// probe feeds one probe-side frame to the root wave, emitting joined tuples
// through b. The frame is recycled on return.
func (j *joiner) probe(fr *frame.Frame, b *frameBuilder) error {
	defer j.ctx.recycle(fr)
	return forEachTupleView(fr, func(lt *frame.LazyTuple) error {
		return j.probeStep(&j.root, lt, b)
	})
}

// probeStep takes one probe tuple through wave w: against the table when the
// build fit in memory, otherwise out to the partition its key's build rows
// went to. Partitions with no build data can never produce output, so their
// probe tuples are dropped here.
func (j *joiner) probeStep(w *joinWave, lt *frame.LazyTuple, b *frameBuilder) error {
	kf, h, err := j.probeKeys.resolve(j.ctx, lt)
	if err != nil {
		return err
	}
	if w.probe != nil {
		p := spillRoute(h, w.depth, len(w.bruns))
		if w.bruns[p] == nil {
			return nil
		}
		return w.probe.writeTo(p, spillTagRaw, lt.Raw())
	}
	bucket, err := j.lookup(h, kf)
	if err != nil || bucket == nil {
		return err
	}
	// An empty join key (empty sequence) never matches anything, per
	// comparison semantics: eq with an empty operand is empty/false.
	for _, f := range kf {
		if item.IsEmptySeqEncoded(f) {
			return nil
		}
	}
	for _, row := range bucket.rows {
		j.out = append(j.out[:0], row.raw...)
		j.out = append(j.out, lt.Raw()...)
		if err := b.emit(j.out); err != nil {
			return err
		}
	}
	return nil
}

// endProbe runs once a wave's probe side is fully consumed. For a build that
// fit in memory the output already streamed through probeStep and there is
// nothing to do; otherwise the probe partitions are sealed and each (build,
// probe) partition pair joins as a wave one level down, on a depth-rotated
// hash.
func (j *joiner) endProbe(w *joinWave, b *frameBuilder) error {
	if w.probe == nil {
		return nil
	}
	pruns, err := w.probe.finish()
	w.probe = nil
	if err != nil {
		return err
	}
	bruns := w.bruns
	w.bruns = nil
	return drainRuns(func(p int) error {
		sub := joinWave{wave: wave{depth: w.depth + 1}}
		defer sub.abort() // a no-op unless an error cuts the wave short
		err := replayRun(j.ctx, bruns[p], func(_ byte, lt *frame.LazyTuple) error {
			return j.buildStep(&sub, lt)
		})
		if err == nil {
			err = j.endBuild(&sub)
		}
		if err == nil {
			err = replayRun(j.ctx, pruns[p], func(_ byte, lt *frame.LazyTuple) error {
				return j.probeStep(&sub, lt, b)
			})
		}
		if err == nil {
			err = j.endProbe(&sub, b)
		}
		j.resetTable() // the next pair starts from an empty table
		return err
	}, bruns, pruns)
}

// release frees the accounted build-table memory (arena reservations were
// charged into memory as they grew, so one release covers both) and cleans up
// any spill state a failed task left behind. feedSource defers it, so the
// balance returns to zero and no files linger on either the clean or the
// error path.
func (j *joiner) release() {
	j.resetTable()
	j.root.abort()
	j.ctx.addSpillStats(j.spill)
}
