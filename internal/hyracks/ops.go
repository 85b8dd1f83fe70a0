package hyracks

import (
	"container/heap"
	"io"
	"sort"

	"fmt"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/runtime"
	"vxq/internal/spill"
)

// OpSpec describes one physical operator of a fragment chain. Build
// instantiates the operator's per-partition runtime as a Writer that pushes
// its output to out.
type OpSpec interface {
	Name() string
	Build(ctx *TaskCtx, out Writer) Writer
}

// rowOp is the tail every row-at-a-time operator embeds: the builder its
// output tuples go through, created at Open and flushed at Close, with both
// calls cascading downstream.
type rowOp struct {
	ctx *TaskCtx
	out Writer
	b   *frameBuilder
}

func (o *rowOp) Open() error {
	o.b = newFrameBuilder(o.ctx, o.out)
	return o.out.Open()
}

func (o *rowOp) Close() error {
	// Close must cascade even when the flush fails: a downstream blocking
	// operator releases its held memory in its own Close, so skipping it on
	// the error path would leave the accountant imbalanced.
	err := o.b.flush()
	if cerr := o.out.Close(); err == nil {
		err = cerr
	}
	return err
}

// emitAndClose is the Close of every blocking operator: emit the result into
// a fresh builder, flush it (or discard the pending frame on failure), and
// cascade the Close downstream either way — see rowOp.Close.
func emitAndClose(ctx *TaskCtx, out Writer, emit func(b *frameBuilder) error) error {
	b := newFrameBuilder(ctx, out)
	err := emit(b)
	if err == nil {
		err = b.flush()
	} else {
		b.discard()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- ASSIGN ---------------------------------------------------------------

// AssignSpec evaluates scalar expressions over each input tuple and appends
// the results as new fields (the Hyracks ASSIGN operator of §3.2).
// A non-nil OutCols projects the output tuple (a fused PROJECT), so dead
// fields are dropped before they are copied downstream.
type AssignSpec struct {
	Evals   []runtime.Evaluator
	OutCols []int
	Desc    string
}

// Name implements OpSpec.
func (s *AssignSpec) Name() string { return "ASSIGN " + s.Desc }

// Build implements OpSpec.
func (s *AssignSpec) Build(ctx *TaskCtx, out Writer) Writer {
	return &assignOp{rowOp: rowOp{ctx: ctx, out: out}, spec: s}
}

type assignOp struct {
	rowOp
	spec *AssignSpec
}

func (o *assignOp) Push(fr *frame.Frame) error {
	defer o.ctx.recycle(fr)
	// Per-frame scratch: existing fields pass through as raw bytes; computed
	// fields are encoded into one reusable buffer (emit copies what it
	// frames, so both are free again after each tuple).
	var (
		out  [][]byte
		proj [][]byte
		enc  []byte
	)
	return forEachTupleView(fr, o.ctx.EagerDecode, func(lt *frame.LazyTuple) error {
		out = append(out[:0], lt.Raw()...)
		enc = enc[:0]
		for _, ev := range o.spec.Evals {
			v, err := ev.Eval(o.ctx.RT, lt)
			if err != nil {
				return err
			}
			lt.Append(v) // later evaluators see the appended field
			start := len(enc)
			enc = item.EncodeSeq(enc, v)
			out = append(out, enc[start:])
		}
		// enc may have been reallocated while growing; earlier slices still
		// point at live (former) backing arrays, so they stay valid until
		// the next tuple resets the buffer.
		outFields, err := applyOutColsInto(proj, out, o.spec.OutCols)
		if err != nil {
			return err
		}
		proj = outFields[:0]
		return o.b.emit(outFields)
	})
}

// --- SELECT ---------------------------------------------------------------

// SelectSpec filters tuples by the effective boolean value of a condition.
// A non-nil OutCols projects the surviving tuples (a fused PROJECT).
type SelectSpec struct {
	Cond    runtime.Evaluator
	OutCols []int
	Desc    string
}

// Name implements OpSpec.
func (s *SelectSpec) Name() string { return "SELECT " + s.Desc }

// Build implements OpSpec.
func (s *SelectSpec) Build(ctx *TaskCtx, out Writer) Writer {
	return &selectOp{rowOp: rowOp{ctx: ctx, out: out}, spec: s}
}

type selectOp struct {
	rowOp
	spec *SelectSpec
}

func (o *selectOp) Push(fr *frame.Frame) error {
	defer o.ctx.recycle(fr)
	var proj [][]byte
	return forEachTupleView(fr, o.ctx.EagerDecode, func(lt *frame.LazyTuple) error {
		v, err := o.spec.Cond.Eval(o.ctx.RT, lt)
		if err != nil {
			return err
		}
		if !item.EffectiveBoolean(v) {
			return nil
		}
		out, err := applyOutColsInto(proj, lt.Raw(), o.spec.OutCols)
		if err != nil {
			return err
		}
		proj = out[:0]
		return o.b.emit(out)
	})
}

// --- UNNEST ---------------------------------------------------------------

// UnnestSpec evaluates an unnesting expression per input tuple and emits one
// output tuple per item of the result, appending the item as a new field.
// A non-nil OutCols projects each output tuple (a fused PROJECT): crucial
// for not copying a large unnested field into every emitted tuple.
type UnnestSpec struct {
	Expr    runtime.Evaluator
	OutCols []int
	Desc    string
}

// Name implements OpSpec.
func (s *UnnestSpec) Name() string { return "UNNEST " + s.Desc }

// Build implements OpSpec.
func (s *UnnestSpec) Build(ctx *TaskCtx, out Writer) Writer {
	return &unnestOp{rowOp: rowOp{ctx: ctx, out: out}, spec: s}
}

type unnestOp struct {
	rowOp
	spec *UnnestSpec
}

func (o *unnestOp) Push(fr *frame.Frame) error {
	defer o.ctx.recycle(fr)
	var (
		out  [][]byte // per-frame scratch; emit copies the bytes it frames
		proj [][]byte
		enc  []byte
	)
	return forEachTupleView(fr, o.ctx.EagerDecode, func(lt *frame.LazyTuple) error {
		v, err := o.spec.Expr.Eval(o.ctx.RT, lt)
		if err != nil {
			return err
		}
		for _, it := range v {
			enc = item.EncodeSeq(enc[:0], item.Single(it))
			out = append(out[:0], lt.Raw()...)
			out = append(out, enc)
			outFields, err := applyOutColsInto(proj, out, o.spec.OutCols)
			if err != nil {
				return err
			}
			proj = outFields[:0]
			if err := o.b.emit(outFields); err != nil {
				return err
			}
		}
		return nil
	})
}

// applyOutColsInto projects raw fields to the given columns, reusing dst's
// capacity; a nil cols is the identity (raw is returned, dst untouched).
func applyOutColsInto(dst [][]byte, raw [][]byte, cols []int) ([][]byte, error) {
	if cols == nil {
		return raw, nil
	}
	dst = dst[:0]
	for _, c := range cols {
		if c < 0 || c >= len(raw) {
			return nil, fmt.Errorf("hyracks: fused project column %d out of range [0,%d)", c, len(raw))
		}
		dst = append(dst, raw[c])
	}
	return dst, nil
}

// --- PROJECT --------------------------------------------------------------

// ProjectSpec keeps only the listed columns, in order.
type ProjectSpec struct {
	Cols []int
}

// Name implements OpSpec.
func (s *ProjectSpec) Name() string { return fmt.Sprintf("PROJECT %v", s.Cols) }

// Build implements OpSpec.
func (s *ProjectSpec) Build(ctx *TaskCtx, out Writer) Writer {
	return &projectOp{rowOp: rowOp{ctx: ctx, out: out}, spec: s}
}

type projectOp struct {
	rowOp
	spec *ProjectSpec
}

func (o *projectOp) Push(fr *frame.Frame) error {
	defer o.ctx.recycle(fr)
	// Projection never looks at field values: route raw bytes only, through
	// one scratch slice reused for every tuple of the frame.
	outFields := make([][]byte, len(o.spec.Cols))
	return forEachTupleRaw(fr, func(raw [][]byte) error {
		for i, c := range o.spec.Cols {
			if c < 0 || c >= len(raw) {
				return fmt.Errorf("hyracks: project column %d out of range [0,%d)", c, len(raw))
			}
			outFields[i] = raw[c]
		}
		return o.b.emit(outFields)
	})
}

// --- AGGREGATE ------------------------------------------------------------

// AggDef is one aggregate computation: an aggregate function applied to an
// argument expression.
type AggDef struct {
	Fn  *runtime.AggFunc
	Arg runtime.Evaluator
}

// countFastCols maps each aggregate to the raw column its argument reads,
// when the fast path applies: the argument is a plain column reference and
// the aggregate state only counts items (runtime.CountStepper). Such
// aggregates step on item.SeqCountEncoded of the raw field — one uvarint
// read instead of a field decode. -1 disables the fast path.
func countFastCols(aggs []AggDef) []int {
	cols := make([]int, len(aggs))
	for i, a := range aggs {
		cols[i] = -1
		ce, ok := a.Arg.(runtime.ColumnEval)
		if !ok {
			continue
		}
		if _, ok := a.Fn.New().(runtime.CountStepper); ok {
			cols[i] = ce.Col
		}
	}
	return cols
}

// stepStates folds one tuple into a row of aggregate states. fastCols
// enables the encoded count fast path (nil or -1 entries evaluate the
// argument normally). hold, when non-nil, is charged with any state growth.
func stepStates(ctx *TaskCtx, aggs []AggDef, fastCols []int, states []runtime.AggState, lt *frame.LazyTuple, hold func(int64)) error {
	for i := range aggs {
		st := states[i]
		var before int64
		if hold != nil {
			before = st.Size()
		}
		if c := colOf(fastCols, i); c >= 0 && c < lt.RawFieldCount() {
			n, err := item.SeqCountEncoded(lt.RawField(c))
			if err != nil {
				return err
			}
			if err := st.(runtime.CountStepper).StepCount(n); err != nil {
				return err
			}
		} else {
			v, err := aggs[i].Arg.Eval(ctx.RT, lt)
			if err != nil {
				return err
			}
			if err := st.Step(v); err != nil {
				return err
			}
		}
		if hold != nil {
			if grew := st.Size() - before; grew > 0 {
				hold(grew)
			}
		}
	}
	return nil
}

func colOf(cols []int, i int) int {
	if cols == nil {
		return -1
	}
	return cols[i]
}

// AggregateSpec folds the whole input into a single output tuple holding one
// field per aggregate (the Hyracks AGGREGATE operator of §3.2).
type AggregateSpec struct {
	Aggs []AggDef
	Desc string
}

// Name implements OpSpec.
func (s *AggregateSpec) Name() string { return "AGGREGATE " + s.Desc }

// Build implements OpSpec.
func (s *AggregateSpec) Build(ctx *TaskCtx, out Writer) Writer {
	return &aggregateOp{ctx: ctx, spec: s, out: out}
}

type aggregateOp struct {
	ctx      *TaskCtx
	spec     *AggregateSpec
	out      Writer
	states   []runtime.AggState
	fastCols []int
}

func (o *aggregateOp) Open() error {
	o.states = make([]runtime.AggState, len(o.spec.Aggs))
	for i, a := range o.spec.Aggs {
		o.states[i] = a.Fn.New()
	}
	if !o.ctx.EagerDecode {
		o.fastCols = countFastCols(o.spec.Aggs)
	}
	return o.out.Open()
}

func (o *aggregateOp) Push(fr *frame.Frame) error {
	defer o.ctx.recycle(fr)
	return forEachTupleView(fr, o.ctx.EagerDecode, func(lt *frame.LazyTuple) error {
		return stepStates(o.ctx, o.spec.Aggs, o.fastCols, o.states, lt, nil)
	})
}

func (o *aggregateOp) Close() error {
	return emitAndClose(o.ctx, o.out, func(b *frameBuilder) error {
		outFields := make([][]byte, len(o.states))
		for i, st := range o.states {
			v, err := st.Finish()
			if err != nil {
				return err
			}
			outFields[i] = item.EncodeSeq(nil, v)
		}
		return b.emit(outFields)
	})
}

// --- GROUP-BY -------------------------------------------------------------

// GroupBySpec is the hash-based GROUP-BY operator: tuples are grouped by the
// key expressions; each group runs the aggregate definitions; at close one
// tuple per group is emitted carrying the key fields then the aggregate
// fields.
//
// The default implementation works entirely in the encoded domain: key
// fields are resolved to raw encoded bytes (sliced from the tuple for
// column keys), hashed with item.HashEncoded, matched byte-wise against the
// bucket chain (item.EqualEncoded on byte mismatch), and interned into a
// per-operator arena when a group is created. Tuples whose keys hit an
// existing group touch no decoded items at all. TaskCtx.EagerDecode selects
// the decoded-sequence reference implementation instead.
type GroupBySpec struct {
	Keys []runtime.Evaluator
	Aggs []AggDef
	Desc string
}

// Name implements OpSpec.
func (s *GroupBySpec) Name() string { return "GROUP-BY " + s.Desc }

// Build implements OpSpec.
func (s *GroupBySpec) Build(ctx *TaskCtx, out Writer) Writer {
	return &groupByOp{ctx: ctx, spec: s, out: out}
}

// egroup is one group of the encoded-mode table.
type egroup struct {
	keyFields [][]byte // arena-interned encoded key fields
	states    []runtime.AggState
	next      *egroup // hash-chain for collision handling
}

// group is one group of the eager reference table.
type group struct {
	keyFields [][]byte
	keySeqs   []item.Sequence
	states    []runtime.AggState
	next      *group // hash-chain for collision handling
}

type groupByOp struct {
	ctx  *TaskCtx
	spec *GroupBySpec
	out  Writer

	// Encoded mode.
	keys     *keyEncoder
	fastCols []int
	etable   map[uint64]*egroup
	eorder   []*egroup // insertion order for deterministic output
	arena    byteArena

	// Eager reference mode.
	eager      bool
	table      map[uint64]*group
	order      []*group // insertion order for deterministic output
	keyScratch []item.Sequence

	memory int64 // bytes the table and arena hold (released when they reset)

	// Out-of-core state (encoded mode only; see spillops.go): root is the
	// depth-0 wave Push feeds. It grows partition writers only if the held
	// table exceeds budget; until then it is the whole in-memory operator.
	budget int64 // per-operator byte budget; 0 = never spill
	root   wave
	spill  spillCounts

	// Profile counters (see profExtras).
	memPeak    int64
	collisions int64
	arenaBytes int64
}

// hold charges sz bytes of retained state (released when the table resets)
// and tracks the held-memory high-water the profiler reports.
func (o *groupByOp) hold(sz int64) {
	o.memory += sz
	if o.memory > o.memPeak {
		o.memPeak = o.memory
	}
	o.ctx.accountHold(sz)
}

// profExtras implements opStatser.
func (o *groupByOp) profExtras(x *opExtras) {
	x.memPeak = o.memPeak
	x.hashCollisions = o.collisions
	x.arenaBytes = o.arenaBytes
	o.spill.profExtras(x)
}

func (o *groupByOp) Open() error {
	o.eager = o.ctx.EagerDecode
	if o.eager {
		o.table = make(map[uint64]*group)
	} else {
		o.etable = make(map[uint64]*egroup)
		o.keys = newKeyEncoder(o.spec.Keys)
		o.fastCols = countFastCols(o.spec.Aggs)
		o.keyScratch = nil
		o.budget = o.ctx.SpillBudget
		// Spilling snapshots and re-merges every aggregate state; an
		// aggregate that cannot pins the operator to the in-memory path.
		for _, a := range o.spec.Aggs {
			if _, ok := a.Fn.New().(runtime.SpillableState); !ok {
				o.budget = 0
				break
			}
		}
	}
	return o.out.Open()
}

func (o *groupByOp) Push(fr *frame.Frame) error {
	defer o.ctx.recycle(fr)
	if o.eager {
		return o.pushEager(fr)
	}
	return forEachTupleView(fr, false, func(lt *frame.LazyTuple) error {
		return o.step(&o.root, spillTagRaw, lt)
	})
}

// step folds one record into wave w: a raw tuple (an input tuple at depth 0,
// a spilled one below it) or a partial the parent wave flushed. While the
// wave is in memory the record lands in the table. Once the table exceeds
// budget and can still be split, the live groups flush to the wave's child
// partitions and every further record routes to its partition untouched
// (classic grace hash); a wave at max depth, or one holding a single
// unsplittable group (whose state is at least output-sized anyway), stays in
// memory — correctness never depends on the budget holding. The tuple's
// fields alias a frame or a run reader's block; everything retained (keys,
// stepped state) is copied by the arena or decoded, never aliased.
func (o *groupByOp) step(w *wave, tag byte, lt *frame.LazyTuple) error {
	var (
		kf  [][]byte
		h   uint64
		err error
	)
	nk := len(o.spec.Keys)
	if tag == spillTagPartial {
		// Key fields, then one aggregate snapshot per aggregate: the key bytes
		// are the ones the raw tuples resolve to, therefore the same hash.
		if lt.RawFieldCount() != nk+len(o.spec.Aggs) {
			return fmt.Errorf("hyracks: malformed spilled partial: %d fields, want %d", lt.RawFieldCount(), nk+len(o.spec.Aggs))
		}
		kf = lt.Raw()[:nk]
		h, err = chainKeyHash(kf)
	} else {
		kf, h, err = o.keys.resolve(o.ctx, lt)
	}
	if err != nil {
		return err
	}
	if w.child != nil {
		return w.child.write(h, tag, lt.Raw())
	}
	g, err := o.elookup(h, kf)
	if err != nil {
		return err
	}
	if g == nil {
		g = o.newGroup(h, kf)
	}
	if tag == spillTagPartial {
		err = o.mergePartial(g, lt.Raw()[nk:])
	} else {
		err = stepStates(o.ctx, o.spec.Aggs, o.fastCols, g.states, lt, o.hold)
	}
	if err != nil {
		return err
	}
	if w.overflows(o.budget, o.memory, len(o.eorder)) {
		return o.flushGroups(w.split(o.ctx, &o.spill))
	}
	return nil
}

// mergePartial folds a partial record's aggregate snapshots into the group's
// states.
func (o *groupByOp) mergePartial(g *egroup, snaps [][]byte) error {
	for i, st := range g.states {
		snap, err := item.DecodeSeq(snaps[i])
		if err != nil {
			return err
		}
		before := st.Size()
		if err := st.(runtime.SpillableState).Merge(snap); err != nil {
			return err
		}
		if grew := st.Size() - before; grew > 0 {
			o.hold(grew)
		}
	}
	return nil
}

// newGroup interns the key bytes in the arena, charges the hold (the arena
// reports whole-chunk reservations as they happen, so interned keys are
// charged like the other holds), and chains the fresh group into the table.
func (o *groupByOp) newGroup(h uint64, kf [][]byte) *egroup {
	stored := make([][]byte, len(kf))
	var sz int64 = 64
	for i, f := range kf {
		cp, grew := o.arena.copy(f)
		stored[i] = cp
		sz += grew
	}
	g := &egroup{keyFields: stored, states: make([]runtime.AggState, len(o.spec.Aggs)), next: o.etable[h]}
	for i, a := range o.spec.Aggs {
		g.states[i] = a.Fn.New()
	}
	o.etable[h] = g
	o.eorder = append(o.eorder, g)
	o.hold(sz) // charged until the table resets
	return g
}

// flushGroups writes every live group as a partial record — key fields, then
// one item.EncodeSeq'd aggregate snapshot per aggregate — routed by the same
// chained key hash raw tuples use, then drops the table. A key has exactly
// one partial per wave and it lands in its partition file before any of the
// key's raw records, so replaying the file merges aggregate state in original
// arrival order (float sums stay bit-identical to the in-memory path).
func (o *groupByOp) flushGroups(ps *spillParts) error {
	var fields [][]byte
	for _, g := range o.eorder {
		fields = append(fields[:0], g.keyFields...)
		for _, st := range g.states {
			snap, err := st.(runtime.SpillableState).Snapshot()
			if err != nil {
				return err
			}
			fields = append(fields, item.EncodeSeq(nil, snap))
		}
		h, err := chainKeyHash(g.keyFields)
		if err != nil {
			return err
		}
		if err := ps.write(h, spillTagPartial, fields); err != nil {
			return err
		}
	}
	o.resetTable()
	return nil
}

// resetTable drops every group and returns the table's held bytes (arena
// growth included — it was charged through hold) to the accountant.
func (o *groupByOp) resetTable() {
	o.arenaBytes += o.arena.release()
	o.etable = make(map[uint64]*egroup)
	o.eorder = o.eorder[:0]
	o.ctx.releaseHold(o.memory)
	o.memory = 0
}

func (o *groupByOp) elookup(h uint64, kf [][]byte) (*egroup, error) {
	for g := o.etable[h]; g != nil; g = g.next {
		ok, err := matchEncodedKey(g.keyFields, kf)
		if err != nil {
			return nil, err
		}
		if ok {
			return g, nil
		}
		o.collisions++ // a chain entry with this hash but a different key
	}
	return nil, nil
}

// pushEager is the decoded-sequence reference implementation: every field is
// decoded, keys are evaluated into sequences, hashed with item.HashSeq and
// chain-matched with item.EqualSeq — the pre-lazy pipeline, kept for
// differential testing and as the benchmark baseline.
func (o *groupByOp) pushEager(fr *frame.Frame) error {
	if cap(o.keyScratch) < len(o.spec.Keys) {
		o.keyScratch = make([]item.Sequence, len(o.spec.Keys))
	}
	keyScratch := o.keyScratch[:len(o.spec.Keys)]
	return forEachTuple(fr, func(fields []item.Sequence, _ [][]byte) error {
		tup := runtime.SeqTuple(fields)
		var h uint64 = 1469598103934665603
		for i, k := range o.spec.Keys {
			v, err := k.Eval(o.ctx.RT, tup)
			if err != nil {
				return err
			}
			keyScratch[i] = v
			h = h*1099511628211 ^ item.HashSeq(v)
		}
		g := o.lookup(h, keyScratch)
		if g == nil {
			keySeqs := append([]item.Sequence(nil), keyScratch...)
			g = &group{keySeqs: keySeqs, states: make([]runtime.AggState, len(o.spec.Aggs))}
			g.keyFields = frame.EncodeFields(keySeqs)
			for i, a := range o.spec.Aggs {
				g.states[i] = a.Fn.New()
			}
			g.next = o.table[h]
			o.table[h] = g
			o.order = append(o.order, g)
			var sz int64 = 64
			for _, kf := range g.keyFields {
				sz += int64(len(kf))
			}
			o.hold(sz) // charged until close; released in Close
		}
		for i, a := range o.spec.Aggs {
			v, err := a.Arg.Eval(o.ctx.RT, tup)
			if err != nil {
				return err
			}
			before := g.states[i].Size()
			if err := g.states[i].Step(v); err != nil {
				return err
			}
			if grew := g.states[i].Size() - before; grew > 0 {
				o.hold(grew)
			}
		}
		return nil
	})
}

func (o *groupByOp) lookup(h uint64, keySeqs []item.Sequence) *group {
	for g := o.table[h]; g != nil; g = g.next {
		match := true
		for i := range keySeqs {
			if !item.EqualSeq(g.keySeqs[i], keySeqs[i]) {
				match = false
				break
			}
		}
		if match {
			return g
		}
		o.collisions++
	}
	return nil
}

func (o *groupByOp) Close() error {
	defer func() {
		// The table is held until the cascade is through (a spilled run
		// already dropped it); the abort is a no-op unless an error cut the
		// run short and left the root wave's partition writers open.
		o.resetTable()
		o.root.abort()
		o.ctx.addSpillStats(o.spill)
	}()
	return emitAndClose(o.ctx, o.out, func(b *frameBuilder) error {
		return o.finish(&o.root, b)
	})
}

// finish completes a wave whose input is exhausted. One that never overflowed
// holds every group of its input in the table and emits them — at depth 0
// that is the whole in-memory operator. One that grew partitions seals them
// and reduces each run as a wave one level down, on a depth-rotated hash.
func (o *groupByOp) finish(w *wave, b *frameBuilder) error {
	if w.child == nil {
		return o.emitGroups(b)
	}
	runs, err := w.seal()
	if err != nil {
		return err
	}
	return drainRuns(func(p int) error {
		sub := wave{depth: w.depth + 1}
		err := replayRun(o.ctx, runs[p], func(tag byte, lt *frame.LazyTuple) error {
			return o.step(&sub, tag, lt)
		})
		if err != nil {
			sub.abort()
			return err
		}
		err = o.finish(&sub, b)
		o.resetTable() // the next run starts from an empty table
		return err
	}, runs)
}

// emitGroups writes one tuple per group — key fields then finished
// aggregates — in insertion order, which is identical between the encoded
// and eager modes (it does not depend on the hash function). The emitted key
// bytes are identical too: column keys pass through the canonical encoding
// unchanged, and computed keys are encoded exactly as the eager
// frame.EncodeFields would.
func (o *groupByOp) emitGroups(b *frameBuilder) error {
	var out [][]byte
	emit := func(keyFields [][]byte, states []runtime.AggState) error {
		out = append(out[:0], keyFields...)
		for _, st := range states {
			v, err := st.Finish()
			if err != nil {
				return err
			}
			out = append(out, item.EncodeSeq(nil, v))
		}
		return b.emit(out)
	}
	if o.eager {
		for _, g := range o.order {
			if err := emit(g.keyFields, g.states); err != nil {
				return err
			}
		}
		return nil
	}
	for _, g := range o.eorder {
		if err := emit(g.keyFields, g.states); err != nil {
			return err
		}
	}
	return nil
}

// accountHold charges bytes to the accountant without pairing the release:
// it is the charge half of the hold-until-Close discipline that blocking
// operators (group-by, sort) follow for retained state. The operator tracks
// everything it charged in a running total and releases that total exactly
// once, in a deferred block at Close, so the balance returns to zero on both
// the clean and the error path.
func (c *TaskCtx) accountHold(n int64) {
	if c.RT != nil && c.RT.Accountant != nil && n != 0 {
		c.RT.Accountant.Allocate(n)
	}
}

// --- SUBPLAN --------------------------------------------------------------

// SubplanSpec runs a nested operator chain once per input tuple (the Hyracks
// SUBPLAN of §3.2: an AGGREGATE over an UNNEST). The nested chain sees the
// single input tuple as its whole input and must end in exactly one output
// tuple (the nested AGGREGATE result); that tuple's fields are appended to
// the input tuple.
type SubplanSpec struct {
	Nested []OpSpec
	Desc   string
}

// Name implements OpSpec.
func (s *SubplanSpec) Name() string { return "SUBPLAN " + s.Desc }

// Build implements OpSpec.
func (s *SubplanSpec) Build(ctx *TaskCtx, out Writer) Writer {
	return &subplanOp{rowOp: rowOp{ctx: ctx, out: out}, spec: s}
}

type subplanOp struct {
	rowOp
	spec *SubplanSpec
}

func (o *subplanOp) Push(fr *frame.Frame) error {
	defer o.ctx.recycle(fr)
	// The outer tuple is only copied, never inspected: raw iteration.
	return forEachTupleRaw(fr, func(raw [][]byte) error {
		sink := &CollectSink{}
		w := BuildChain(o.ctx, o.spec.Nested, recycleSink{ctx: o.ctx, w: sink})
		if err := w.Open(); err != nil {
			return err
		}
		inner := o.ctx.newFrame()
		inner.AppendTuple(raw)
		if err := w.Push(inner); err != nil {
			// Best-effort close of the nested chain so its operators release
			// whatever they hold; report the push error.
			_ = w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		if len(sink.Rows) != 1 {
			return fmt.Errorf("hyracks: subplan produced %d tuples, want 1", len(sink.Rows))
		}
		outFields := append([][]byte(nil), raw...)
		outFields = append(outFields, frame.EncodeFields(sink.Rows[0])...)
		return o.b.emit(outFields)
	})
}

// BuildChain composes a chain of operator specs into a single Writer whose
// final output goes to terminal. specs[0] is the first operator the input
// flows through.
func BuildChain(ctx *TaskCtx, specs []OpSpec, terminal Writer) Writer {
	w := terminal
	for i := len(specs) - 1; i >= 0; i-- {
		w = specs[i].Build(ctx, w)
	}
	return w
}

// --- SORT -------------------------------------------------------------------

// SortDef is one sort key: an evaluator plus direction.
type SortDef struct {
	Key  runtime.Evaluator
	Desc bool
}

// SortSpec materializes its whole input, orders it by the sort keys (stable,
// so ties keep arrival order), and emits the sorted tuples at close. It
// implements the XQuery order-by clause.
type SortSpec struct {
	Keys []SortDef
	Desc string
}

// Name implements OpSpec.
func (s *SortSpec) Name() string { return "ORDER-BY " + s.Desc }

// Build implements OpSpec.
func (s *SortSpec) Build(ctx *TaskCtx, out Writer) Writer {
	return &sortOp{ctx: ctx, spec: s, out: out}
}

type sortRow struct {
	keys []item.Sequence
	raw  [][]byte
}

type sortOp struct {
	ctx     *TaskCtx
	spec    *SortSpec
	out     Writer
	rows    []sortRow
	memory  int64
	memPeak int64

	// Out-of-core state (see spillops.go): when the held rows exceed budget
	// they are sorted and written out as one run; Close k-way merges the runs.
	budget int64
	runs   []*spill.Run
	spill  spillCounts // parts = sorted runs, waves = run flushes
}

func (o *sortOp) Open() error {
	if !o.ctx.EagerDecode {
		o.budget = o.ctx.SpillBudget
	}
	return o.out.Open()
}

// hold charges sz bytes of retained rows (released once at Close), tracking
// the high-water for the profiler.
func (o *sortOp) hold(sz int64) {
	o.memory += sz
	if o.memory > o.memPeak {
		o.memPeak = o.memory
	}
	o.ctx.accountHold(sz)
}

// profExtras implements opStatser.
func (o *sortOp) profExtras(x *opExtras) {
	x.memPeak = o.memPeak
	o.spill.profExtras(x)
}

// compareKeys orders two rows' evaluated key sequences under the sort spec.
func (o *sortOp) compareKeys(a, b []item.Sequence) int {
	for k := range o.spec.Keys {
		c := item.CompareSeq(a[k], b[k])
		if o.spec.Keys[k].Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// sortRows stably orders the buffered rows (ties keep arrival order — the
// order-by contract, and what makes run merging equivalent to one big sort).
func (o *sortOp) sortRows() {
	sort.SliceStable(o.rows, func(i, j int) bool {
		return o.compareKeys(o.rows[i].keys, o.rows[j].keys) < 0
	})
}

// spillSortedRun sorts the buffered rows and writes them out as one run —
// each record is the item.EncodeSeq'd key sequences followed by the raw tuple
// fields, so the merge re-decodes keys without re-evaluating expressions —
// then drops the buffer and returns its held bytes to the accountant.
func (o *sortOp) spillSortedRun() error {
	o.sortRows()
	w, err := spill.NewWriter(o.ctx.SpillDir, o.ctx.spillBlockSize())
	if err != nil {
		return err
	}
	release := o.ctx.account(int64(o.ctx.spillBlockSize()))
	var fields [][]byte
	for _, r := range o.rows {
		fields = fields[:0]
		for _, k := range r.keys {
			fields = append(fields, item.EncodeSeq(nil, k))
		}
		fields = append(fields, r.raw...)
		n, werr := w.Write(spillTagRaw, fields)
		o.spill.bytes += int64(n)
		if werr != nil {
			w.Abort()
			release()
			return werr
		}
	}
	run, err := w.Finish()
	release()
	if err != nil {
		return err
	}
	if run != nil {
		o.runs = append(o.runs, run)
		o.spill.parts++
		o.spill.waves++
	}
	o.rows = o.rows[:0]
	o.ctx.releaseHold(o.memory)
	o.memory = 0
	return nil
}

func (o *sortOp) Push(fr *frame.Frame) error {
	defer o.ctx.recycle(fr)
	err := forEachTupleView(fr, o.ctx.EagerDecode, func(lt *frame.LazyTuple) error {
		keys := make([]item.Sequence, len(o.spec.Keys))
		for i, k := range o.spec.Keys {
			v, err := k.Key.Eval(o.ctx.RT, lt)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		raw := lt.Raw()
		stored := make([][]byte, len(raw))
		var sz int64 = 48
		for i, f := range raw {
			stored[i] = append([]byte(nil), f...)
			sz += int64(len(f))
		}
		// The evaluated key sequences are retained until Close too — charge
		// them, not just the raw tuple bytes.
		for _, k := range keys {
			sz += item.SizeBytesSeq(k)
		}
		o.rows = append(o.rows, sortRow{keys: keys, raw: stored})
		o.hold(sz)
		return nil
	})
	if err != nil {
		return err
	}
	if o.budget > 0 && o.memory > o.budget {
		return o.spillSortedRun()
	}
	return nil
}

func (o *sortOp) Close() error {
	defer func() {
		o.ctx.releaseHold(o.memory)
		o.memory = 0
		// A merge cut short by an error leaves unconsumed run files behind;
		// the sweep removes them (consumed runs were already removed).
		spill.RemoveRuns(o.runs)
		o.runs = nil
		o.ctx.addSpillStats(o.spill)
	}()
	return emitAndClose(o.ctx, o.out, func(b *frameBuilder) error {
		if len(o.runs) > 0 {
			return o.mergeRuns(b)
		}
		o.sortRows()
		for _, r := range o.rows {
			if err := b.emit(r.raw); err != nil {
				return err
			}
		}
		o.rows = nil
		return nil
	})
}

// sortCursor is one run's read head during the k-way merge: the decoded key
// sequences and the raw tuple fields of the current record. raw aliases the
// reader's block buffer — valid until the next advance, and the frame builder
// copies on emit before that happens.
type sortCursor struct {
	rd   *spill.Reader
	idx  int // run index: ties break toward earlier runs = arrival order
	keys []item.Sequence
	raw  [][]byte
}

// sortMerge is the merge heap over the open cursors (container/heap).
type sortMerge struct {
	op  *sortOp
	cur []*sortCursor
}

func (m *sortMerge) Len() int { return len(m.cur) }
func (m *sortMerge) Less(i, j int) bool {
	a, b := m.cur[i], m.cur[j]
	if c := m.op.compareKeys(a.keys, b.keys); c != 0 {
		return c < 0
	}
	return a.idx < b.idx
}
func (m *sortMerge) Swap(i, j int) { m.cur[i], m.cur[j] = m.cur[j], m.cur[i] }
func (m *sortMerge) Push(x any)    { m.cur = append(m.cur, x.(*sortCursor)) }
func (m *sortMerge) Pop() any {
	c := m.cur[len(m.cur)-1]
	m.cur = m.cur[:len(m.cur)-1]
	return c
}

// advance loads the cursor's next record, reporting false at end of run.
func (o *sortOp) advance(c *sortCursor) (bool, error) {
	_, fields, err := c.rd.Next()
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	nk := len(o.spec.Keys)
	if len(fields) < nk {
		return false, fmt.Errorf("hyracks: malformed spilled sort row: %d fields, want >= %d", len(fields), nk)
	}
	for i := 0; i < nk; i++ {
		s, err := item.DecodeSeq(fields[i])
		if err != nil {
			return false, err
		}
		c.keys[i] = s
	}
	c.raw = fields[nk:]
	return true, nil
}

// mergeRuns spills any still-buffered rows as a final run, then streams the
// k-way merge of all runs downstream. Run-index tie-breaking makes the merge
// byte-identical to stably sorting the whole input in memory: within a run
// arrival order is preserved by the stable sort, and earlier runs hold
// earlier arrivals.
func (o *sortOp) mergeRuns(b *frameBuilder) error {
	if len(o.rows) > 0 {
		if err := o.spillSortedRun(); err != nil {
			return err
		}
	}
	m := &sortMerge{op: o}
	defer func() {
		for _, c := range m.cur {
			c.rd.Close()
		}
	}()
	release := o.ctx.account(int64(o.ctx.spillBlockSize()) * int64(len(o.runs)))
	defer release()
	nk := len(o.spec.Keys)
	for i, r := range o.runs {
		rd, err := r.Open()
		if err != nil {
			return err
		}
		c := &sortCursor{rd: rd, idx: i, keys: make([]item.Sequence, nk)}
		m.cur = append(m.cur, c)
		ok, err := o.advance(c)
		if err != nil {
			return err
		}
		if !ok {
			c.rd.Close()
			m.cur = m.cur[:len(m.cur)-1]
		}
	}
	heap.Init(m)
	for m.Len() > 0 {
		c := m.cur[0]
		if err := b.emit(c.raw); err != nil {
			return err
		}
		ok, err := o.advance(c)
		if err != nil {
			return err
		}
		if ok {
			heap.Fix(m, 0)
		} else {
			c.rd.Close()
			heap.Pop(m)
		}
	}
	for i, r := range o.runs {
		r.Remove()
		o.runs[i] = nil
	}
	o.runs = o.runs[:0]
	return nil
}
