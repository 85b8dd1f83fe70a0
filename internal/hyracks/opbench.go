package hyracks

import (
	"fmt"
	"slices"
	"time"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// This file exports thin harnesses that drive individual operators over
// prebuilt frames, so the query-kernel benchmarks (internal/bench) and the
// end-to-end benchmark's operator-only layer metrics can measure the
// encoded-key paths against a decoded reference without a scan or an
// executor in the loop.
//
// The harness contexts carry no frame pool: recycle is a no-op, so the
// caller's input frames survive a pass and can be pushed again on the next
// one.

// BenchFrames packs the rows into frames of the given size (the default
// when <= 0). Each row becomes one tuple of canonically encoded fields.
func BenchFrames(rows [][]item.Sequence, frameSize int) []*frame.Frame {
	if frameSize <= 0 {
		frameSize = frame.DefaultFrameSize
	}
	var frames []*frame.Frame
	fr := frame.New(frameSize)
	for _, row := range rows {
		fields := frame.EncodeFields(row)
		if fr.AppendTuple(fields) {
			continue
		}
		frames = append(frames, fr)
		fr = frame.New(frameSize)
		if !fr.AppendTuple(fields) {
			panic("hyracks: bench tuple larger than frame")
		}
	}
	if fr.TupleCount() > 0 {
		frames = append(frames, fr)
	}
	return frames
}

func benchCtx() *TaskCtx {
	return &TaskCtx{RT: &runtime.Ctx{Stats: &runtime.Stats{}}}
}

// benchProf arms a harness context with a synthetic three-stage task profile
// (source | op | sink), so a profiled pass carries exactly the per-boundary
// wrappers the runner installs. Used to measure profiling overhead.
func benchProf(ctx *TaskCtx, name, kind string) {
	ctx.prof = &taskProf{epoch: time.Now(), stages: []stageProf{
		{name: "BENCH-SOURCE", kind: "source"},
		{name: name, kind: kind},
		{name: "RESULT", kind: "sink"},
	}}
}

// benchWrap wraps the op writer (stage 1) and its sink (stage 2) with the
// profiling boundary when the context is profiled; otherwise it builds the
// bare chain.
func benchWrap(ctx *TaskCtx, build func(out Writer) Writer, sink Writer) Writer {
	if ctx.prof == nil {
		return build(sink)
	}
	return &profWriter{
		inner: build(&profWriter{inner: sink, t: ctx.prof, idx: 2}),
		t:     ctx.prof, idx: 1,
	}
}

// countSink counts tuples without decoding them.
type countSink struct{ n int64 }

func (s *countSink) Open() error { return nil }
func (s *countSink) Push(fr *frame.Frame) error {
	s.n += int64(fr.TupleCount())
	return nil
}
func (s *countSink) Close() error { return nil }

// BenchGroupBy pushes the frames through one GROUP-BY operator into a
// counting sink and returns the number of result groups. eager selects the
// decoded reference (refGroupBySpec); profiled adds the profiling boundary
// wrappers (for overhead measurement).
func BenchGroupBy(spec *GroupBySpec, frames []*frame.Frame, eager, profiled bool) (int64, error) {
	ctx := benchCtx()
	var op OpSpec = spec
	if eager {
		op = refGroupBySpec{spec}
	}
	if profiled {
		benchProf(ctx, spec.Name(), "group-by")
	}
	sink := &countSink{}
	w := benchWrap(ctx, func(out Writer) Writer { return op.Build(ctx, out) }, sink)
	if err := pushAll(w, frames); err != nil {
		return 0, err
	}
	return sink.n, nil
}

// pushAll opens w, pushes every frame through it and closes it.
func pushAll(w Writer, frames []*frame.Frame) error {
	if err := w.Open(); err != nil {
		return err
	}
	for _, fr := range frames {
		if err := w.Push(fr); err != nil {
			return err
		}
	}
	return w.Close()
}

// countDest is a frameDest that counts and drops routed frames.
type countDest struct{ n int64 }

func (d *countDest) send(fr *frame.Frame) error {
	d.n += int64(fr.TupleCount())
	return nil
}

// BenchHashShuffle routes the frames through a hash exchange onto parts
// destinations and returns the number of tuples shipped. eager selects the
// decoded reference route (refRouter); profiled adds the profiling boundary
// wrapper.
func BenchHashShuffle(keys []runtime.Evaluator, parts int, frames []*frame.Frame, eager, profiled bool) (int64, error) {
	ctx := benchCtx()
	dests := make([]frameDest, parts)
	counts := make([]*countDest, parts)
	for i := range dests {
		d := &countDest{}
		dests[i] = d
		counts[i] = d
	}
	ew := newExchangeWriter(ctx, &Exchange{Kind: ExchangeHash, Keys: keys, ConsumerPartitions: parts}, dests)
	var w Writer = ew
	if eager {
		w = refRouter{ew}
	}
	if profiled {
		benchProf(ctx, "EXCHANGE bench[HASH]", "exchange")
		w = &profWriter{inner: w, t: ctx.prof, idx: 1}
	}
	if err := pushAll(w, frames); err != nil {
		return 0, err
	}
	var total int64
	for _, d := range counts {
		total += d.n
	}
	if st := ctx.RT.Stats; st.TuplesShuffled != total {
		return 0, fmt.Errorf("hyracks: shuffle stats %d != routed tuples %d", st.TuplesShuffled, total)
	}
	return total, nil
}

// joinSides is what a harness drives of a hash join: joiner or refJoin.
type joinSides interface {
	build(fr *frame.Frame) error
	probe(fr *frame.Frame, b *frameBuilder) error
}

// BenchHashJoin builds a hash join from the build frames, probes it with the
// probe frames, and returns the number of joined tuples. eager selects the
// decoded reference (refJoin); profiled wraps the join's output path (the
// boundary the runner instruments on a join fragment).
func BenchHashJoin(spec *JoinSpec, build, probe []*frame.Frame, eager, profiled bool) (int64, error) {
	ctx := benchCtx()
	var j joinSides
	if eager {
		j = &refJoin{ctx: ctx, spec: spec, table: refTable{}}
	} else {
		jn := newJoiner(ctx, spec)
		defer jn.release()
		j = jn
	}
	for _, fr := range build {
		if err := j.build(fr); err != nil {
			return 0, err
		}
	}
	sink := &countSink{}
	var out Writer = sink
	if profiled {
		benchProf(ctx, "HASH-JOIN bench", "join")
		out = &profWriter{inner: out, t: ctx.prof, idx: 2}
	}
	b := newFrameBuilder(ctx, out)
	for _, fr := range probe {
		if err := j.probe(fr, b); err != nil {
			return 0, err
		}
	}
	if err := b.flush(); err != nil {
		return 0, err
	}
	return sink.n, nil
}

// --- decoded-sequence references ---------------------------------------------
//
// The references below are the pre-binary-kernel GROUP-BY, hash join and hash
// route, kept as the baseline of the Bench* harnesses and as the oracle of the
// operator differential tests. They share no branch with the operators: every
// field of every tuple is decoded (forEachTuple), keys are evaluated into
// sequences, hashed with item.HashSeq under keyEncoder.resolve's FNV chain,
// and matched with item.EqualSeq. Nothing is accounted and nothing spills.

// refKeyHash evaluates key expressions over a decoded tuple into dst and
// folds their sequence hashes exactly as keyEncoder.resolve folds the
// encoded ones (HashEncoded == HashSeq), so both route a key alike.
func refKeyHash(ctx *TaskCtx, keys []runtime.Evaluator, fields, dst []item.Sequence) ([]item.Sequence, uint64, error) {
	var h uint64 = 1469598103934665603
	for _, k := range keys {
		v, err := k.Eval(ctx.RT, runtime.SeqTuple(fields))
		if err != nil {
			return nil, 0, err
		}
		dst = append(dst, v)
		h = h*1099511628211 ^ item.HashSeq(v)
	}
	return dst, h, nil
}

// refTable maps a key hash to the entries of the decoded keys that have it.
type refTable map[uint64][]*refEntry

// refEntry is one decoded key of a refTable and what the reference keeps
// under it.
type refEntry struct {
	key  []item.Sequence
	g    *group     // GROUP-BY: the encoded key and the aggregate states
	rows [][][]byte // hash join: the build rows, in arrival order
}

// find returns key's entry; when key is absent it returns nil, or with add
// set a new entry over a copy of key.
func (t refTable) find(h uint64, key []item.Sequence, add bool) *refEntry {
	for _, e := range t[h] {
		if slices.EqualFunc(e.key, key, item.EqualSeq) {
			return e
		}
	}
	if !add {
		return nil
	}
	e := &refEntry{key: slices.Clone(key)}
	t[h] = append(t[h], e)
	return e
}

// refGroupBySpec builds the reference GROUP-BY in place of spec's operator.
type refGroupBySpec struct{ *GroupBySpec }

// Build implements OpSpec.
func (s refGroupBySpec) Build(ctx *TaskCtx, out Writer) Writer {
	return &refGroupBy{ctx: ctx, spec: s.GroupBySpec, out: out, table: refTable{}}
}

type refGroupBy struct {
	ctx    *TaskCtx
	spec   *GroupBySpec
	out    Writer
	table  refTable
	groups []*group        // first-arrival order, emitted like groupByOp's
	keys   []item.Sequence // scratch
}

func (o *refGroupBy) Open() error { return o.out.Open() }

func (o *refGroupBy) Push(fr *frame.Frame) error {
	defer o.ctx.recycle(fr)
	return forEachTuple(fr, func(fields []item.Sequence, _ [][]byte) error {
		keys, h, err := refKeyHash(o.ctx, o.spec.Keys, fields, o.keys[:0])
		if err != nil {
			return err
		}
		o.keys = keys
		e := o.table.find(h, keys, true)
		if e.g == nil {
			e.g = &group{keyFields: frame.EncodeFields(keys), states: newAggStates(o.spec.Aggs)}
			o.groups = append(o.groups, e.g)
		}
		for i, a := range o.spec.Aggs {
			v, err := a.Arg.Eval(o.ctx.RT, runtime.SeqTuple(fields))
			if err == nil {
				err = e.g.states[i].Step(v)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

func (o *refGroupBy) Close() error {
	return emitAndClose(o.ctx, o.out, func(b *frameBuilder) error { return emitGroups(b, o.groups) })
}

// refJoin copies build rows into a refTable under their decoded keys; each
// probe tuple then emits build row ++ probe tuple for every build row of its
// key, in build arrival order. An empty key never matches.
type refJoin struct {
	ctx   *TaskCtx
	spec  *JoinSpec
	table refTable
}

func (j *refJoin) build(fr *frame.Frame) error {
	defer j.ctx.recycle(fr)
	return forEachTuple(fr, func(fields []item.Sequence, raw [][]byte) error {
		keys, h, err := refKeyHash(j.ctx, j.spec.BuildKeys, fields, nil)
		if err != nil {
			return err
		}
		row := make([][]byte, len(raw))
		for i, f := range raw {
			row[i] = slices.Clone(f)
		}
		e := j.table.find(h, keys, true)
		e.rows = append(e.rows, row)
		return nil
	})
}

func (j *refJoin) probe(fr *frame.Frame, b *frameBuilder) error {
	defer j.ctx.recycle(fr)
	var out [][]byte
	return forEachTuple(fr, func(fields []item.Sequence, raw [][]byte) error {
		keys, h, err := refKeyHash(j.ctx, j.spec.ProbeKeys, fields, nil)
		if err != nil || slices.ContainsFunc(keys, func(k item.Sequence) bool { return len(k) == 0 }) {
			return err
		}
		if e := j.table.find(h, keys, false); e != nil {
			for _, row := range e.rows {
				out = append(append(out[:0], row...), raw...)
				if err := b.emit(out); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// refRouter is the reference hash route: it keeps the exchange writer's
// builders, shuffle stats and Close, and picks each tuple's destination from
// the decoded keys instead of the encoded bytes.
type refRouter struct{ *exchangeWriter }

func (w refRouter) Push(fr *frame.Frame) error {
	defer w.ctx.recycle(fr)
	var keys []item.Sequence
	return forEachTuple(fr, func(fields []item.Sequence, raw [][]byte) error {
		k, h, err := refKeyHash(w.ctx, w.exch.Keys, fields, keys[:0])
		if err != nil {
			return err
		}
		keys = k
		return w.ship(int(h%uint64(len(w.dests))), raw)
	})
}
