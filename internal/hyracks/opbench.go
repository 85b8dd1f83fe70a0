package hyracks

import (
	"fmt"
	"time"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// This file exports thin harnesses that drive individual operators over
// prebuilt frames, so the query-kernel benchmarks (internal/bench) and the
// end-to-end benchmark's operator-only layer metrics can measure the
// encoded-key paths against the eager reference without a scan or an
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

func benchCtx(eager bool) *TaskCtx {
	return &TaskCtx{RT: &runtime.Ctx{Stats: &runtime.Stats{}}, EagerDecode: eager}
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
// decoded reference implementation; profiled adds the profiling boundary
// wrappers (for overhead measurement).
func BenchGroupBy(spec *GroupBySpec, frames []*frame.Frame, eager, profiled bool) (int64, error) {
	ctx := benchCtx(eager)
	if profiled {
		benchProf(ctx, spec.Name(), "group-by")
	}
	sink := &countSink{}
	w := benchWrap(ctx, func(out Writer) Writer { return spec.Build(ctx, out) }, sink)
	if err := w.Open(); err != nil {
		return 0, err
	}
	for _, fr := range frames {
		if err := w.Push(fr); err != nil {
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return sink.n, nil
}

// countDest is a frameDest that counts and drops routed frames.
type countDest struct{ n int64 }

func (d *countDest) send(fr *frame.Frame) error {
	d.n += int64(fr.TupleCount())
	return nil
}

// BenchHashShuffle routes the frames through a hash exchange onto parts
// destinations and returns the number of tuples shipped. eager selects the
// decoded routing path; profiled adds the profiling boundary wrapper.
func BenchHashShuffle(keys []runtime.Evaluator, parts int, frames []*frame.Frame, eager, profiled bool) (int64, error) {
	ctx := benchCtx(eager)
	dests := make([]frameDest, parts)
	counts := make([]*countDest, parts)
	for i := range dests {
		d := &countDest{}
		dests[i] = d
		counts[i] = d
	}
	var w Writer = newExchangeWriter(ctx, &Exchange{Kind: ExchangeHash, Keys: keys, ConsumerPartitions: parts}, dests)
	if profiled {
		benchProf(ctx, "EXCHANGE bench[HASH]", "exchange")
		w = &profWriter{inner: w, t: ctx.prof, idx: 1}
	}
	if err := w.Open(); err != nil {
		return 0, err
	}
	for _, fr := range frames {
		if err := w.Push(fr); err != nil {
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
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

// BenchHashJoin builds a hash join from the build frames, probes it with the
// probe frames, and returns the number of joined tuples. eager selects the
// decoded reference implementation; profiled wraps the join's output path
// (the boundary the runner instruments on a join fragment).
func BenchHashJoin(spec *JoinSpec, build, probe []*frame.Frame, eager, profiled bool) (int64, error) {
	ctx := benchCtx(eager)
	j := newJoiner(ctx, spec)
	defer j.release()
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
