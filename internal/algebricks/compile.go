package algebricks

import (
	"fmt"

	"vxq/internal/hyracks"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// CompileOptions controls physical plan generation.
type CompileOptions struct {
	// Partitions is the number of partitions for partitioned-parallel
	// fragments (those rooted at a DATASCAN). Non-partitioned plans (the
	// unoptimized collection() evaluation) always run on one partition,
	// which is exactly the paper's observation that DATASCAN is what
	// unlocks partitioned parallelism.
	Partitions int
	// TwoStepAggregation enables Algebricks' local/global aggregation
	// scheme (§4.3) for group-bys and aggregates over partitioned input.
	TwoStepAggregation bool
}

// Compile lowers an optimized logical plan to a Hyracks job.
func Compile(p *Plan, opts CompileOptions) (*hyracks.Job, error) {
	if opts.Partitions <= 0 {
		opts.Partitions = 1
	}
	PruneColumns(p)
	c := &compiler{opts: opts, job: &hyracks.Job{}}
	dr, ok := p.Root.(*DistributeResult)
	if !ok {
		return nil, fmt.Errorf("algebricks: plan root must be DISTRIBUTE-RESULT, got %T", p.Root)
	}
	s, err := c.compile(dr.In)
	if err != nil {
		return nil, err
	}
	cols, err := columnsOf(s.schema, dr.Vs)
	if err != nil {
		return nil, err
	}
	s.ops = append(s.ops, &hyracks.ProjectSpec{Cols: cols})
	c.job.Fragments = append(c.job.Fragments, &hyracks.Fragment{
		ID: c.nextFragID(), Source: s.src, Ops: fuseProjects(s.ops),
		Partitions: s.partitions, SinkExchange: -1,
	})
	if err := c.job.Validate(); err != nil {
		return nil, err
	}
	return c.job, nil
}

type compiler struct {
	opts    CompileOptions
	job     *hyracks.Job
	fragSeq int
	exchSeq int
	// outer is the schema a NESTED-TUPLE-SOURCE exposes: non-nil exactly
	// while a subplan's nested plan is being lowered.
	outer []Var
}

func (c *compiler) nextFragID() int {
	id := c.fragSeq
	c.fragSeq++
	return id
}

// stream is a fragment under construction. A nested plan's stream has no
// source: it is fed the outer tuple by the SUBPLAN operator.
type stream struct {
	src        hyracks.SourceSpec
	ops        []hyracks.OpSpec
	partitions int
	schema     []Var
}

// closeToExchange finalizes the stream's fragment, sinking into a new
// exchange, and returns the exchange id.
func (c *compiler) closeToExchange(s *stream, kind hyracks.ExchangeKind,
	keys []runtime.Evaluator, consumers int) int {
	id := c.exchSeq
	c.exchSeq++
	c.job.Exchanges = append(c.job.Exchanges, &hyracks.Exchange{
		ID: id, Kind: kind, Keys: keys, ConsumerPartitions: consumers,
	})
	c.job.Fragments = append(c.job.Fragments, &hyracks.Fragment{
		ID: c.nextFragID(), Source: s.src, Ops: fuseProjects(s.ops),
		Partitions: s.partitions, SinkExchange: id,
	})
	return id
}

// fuseProjects merges each ProjectSpec into the preceding ASSIGN / SELECT
// operator's fused output projection, so dead fields are dropped at emit
// time rather than copied and re-projected. UNNEST is deliberately *not*
// fused: like Hyracks, it writes complete output tuples into frames, so a
// plan that unnests a large materialized sequence pays for copying it —
// the very cost the paper's pipelining rules eliminate (§4.2).
func fuseProjects(ops []hyracks.OpSpec) []hyracks.OpSpec {
	out := make([]hyracks.OpSpec, 0, len(ops))
	for _, op := range ops {
		pr, ok := op.(*hyracks.ProjectSpec)
		if !ok || len(out) == 0 {
			out = append(out, op)
			continue
		}
		switch prev := out[len(out)-1].(type) {
		case *hyracks.AssignSpec:
			if prev.OutCols == nil {
				prev.OutCols = pr.Cols
				continue
			}
		case *hyracks.SelectSpec:
			if prev.OutCols == nil {
				prev.OutCols = pr.Cols
				continue
			}
		}
		out = append(out, op)
	}
	return out
}

func columnOf(schema []Var, v Var) (int, error) {
	for i, sv := range schema {
		if sv == v {
			return i, nil
		}
	}
	return 0, fmt.Errorf("algebricks: variable %v not in schema %v", v, schema)
}

// columnsOf resolves each of vs to its column in schema.
func columnsOf(schema, vs []Var) ([]int, error) {
	cols := make([]int, len(vs))
	for i, v := range vs {
		col, err := columnOf(schema, v)
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	return cols, nil
}

// evalAll compiles each expression to a runtime evaluator over schema.
func evalAll(es []Expr, schema []Var) ([]runtime.Evaluator, error) {
	evs := make([]runtime.Evaluator, len(es))
	for i, e := range es {
		ev, err := exprEval(e, schema)
		if err != nil {
			return nil, err
		}
		evs[i] = ev
	}
	return evs, nil
}

// exprEval compiles a logical expression to a runtime evaluator over the
// given schema.
func exprEval(e Expr, schema []Var) (runtime.Evaluator, error) {
	switch x := e.(type) {
	case *VarExpr:
		col, err := columnOf(schema, x.V)
		if err != nil {
			return nil, err
		}
		return runtime.ColumnEval{Col: col}, nil
	case *ConstExpr:
		return runtime.ConstEval{Seq: x.Seq}, nil
	case *CallExpr:
		if p, ok := pathEval(x, schema); ok {
			return p, nil
		}
		fn, err := runtime.LookupFunction(x.Fn)
		if err != nil {
			return nil, err
		}
		if len(x.Args) == 2 {
			p, isPath := pathEval(x.Args[0], schema)
			c, isConst := x.Args[1].(*ConstExpr)
			if isPath && isConst {
				if ce, ok := runtime.NewCompareEval(fn, p, c.Seq); ok {
					return ce, nil
				}
			}
		}
		args := make([]runtime.Evaluator, len(x.Args))
		for i, a := range x.Args {
			ev, err := exprEval(a, schema)
			if err != nil {
				return nil, err
			}
			args[i] = ev
		}
		return runtime.CallEval{Fn: fn, Args: args}, nil
	default:
		return nil, fmt.Errorf("algebricks: unknown expression %T", e)
	}
}

// pathEval compiles value(…value($v, "k1")…, "kn") with constant string keys
// over a column to the evaluator that walks the encoded field
// (runtime.PathEval); ok is false for any other expression.
func pathEval(e Expr, schema []Var) (runtime.PathEval, bool) {
	x, ok := e.(*CallExpr)
	if !ok || x.Fn != "value" || len(x.Args) != 2 {
		return runtime.PathEval{}, false
	}
	k, ok := x.Args[1].(*ConstExpr)
	if !ok || len(k.Seq) != 1 {
		return runtime.PathEval{}, false
	}
	key, ok := k.Seq[0].(item.String)
	if !ok {
		return runtime.PathEval{}, false
	}
	var p runtime.PathEval
	switch in := x.Args[0].(type) {
	case *VarExpr:
		col, err := columnOf(schema, in.V)
		if err != nil {
			return runtime.PathEval{}, false
		}
		p.Col = col
	default:
		if p, ok = pathEval(in, schema); !ok {
			return runtime.PathEval{}, false
		}
	}
	p.Keys = append(p.Keys[:len(p.Keys):len(p.Keys)], string(key))
	return p, true
}

// Aggregate function lowering tables: logical name to physical aggregate
// for single-step, local and global execution.
var (
	aggSingle = map[string]string{
		"sequence": "agg-sequence", "count": "agg-count",
		"sum": "agg-sum", "avg": "agg-avg",
		"min": "agg-min", "max": "agg-max",
	}
	aggLocal = map[string]string{
		"count": "agg-count", "sum": "agg-sum", "avg": "agg-avg-local",
		"min": "agg-min", "max": "agg-max",
	}
	aggGlobal = map[string]string{
		"count": "agg-sum", "sum": "agg-sum", "avg": "agg-avg-global",
		"min": "agg-min", "max": "agg-max",
	}
)

func splittable(aggs []AggExpr) bool {
	for _, a := range aggs {
		if _, ok := aggLocal[a.Fn]; !ok {
			return false
		}
	}
	return true
}

func (c *compiler) aggDefs(aggs []AggExpr, schema []Var, table map[string]string) ([]hyracks.AggDef, error) {
	defs := make([]hyracks.AggDef, len(aggs))
	for i, a := range aggs {
		phys, ok := table[a.Fn]
		if !ok {
			return nil, fmt.Errorf("algebricks: no physical aggregate for %q", a.Fn)
		}
		fn, err := runtime.LookupAgg(phys)
		if err != nil {
			return nil, err
		}
		arg, err := exprEval(a.Arg, schema)
		if err != nil {
			return nil, err
		}
		defs[i] = hyracks.AggDef{Fn: fn, Arg: arg}
	}
	return defs, nil
}

func (c *compiler) compile(op Op) (*stream, error) {
	switch o := op.(type) {
	case *EmptyTupleSource:
		return &stream{src: hyracks.ETSSource{}, partitions: 1}, nil

	case *DataScan:
		if _, ok := o.In.(*EmptyTupleSource); !ok {
			return nil, fmt.Errorf("algebricks: DATASCAN input must be EMPTY-TUPLE-SOURCE, got %T", o.In)
		}
		return &stream{
			src:        hyracks.ScanSource{Collection: o.Collection, Project: o.Project, Filter: o.Filter},
			partitions: c.opts.Partitions,
			schema:     []Var{o.V},
		}, nil

	case *Assign:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		ev, err := exprEval(o.E, s.schema)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, &hyracks.AssignSpec{Evals: []runtime.Evaluator{ev}, Desc: o.Label()})
		s.schema = append(s.schema, o.V)
		return s, nil

	case *Select:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		ev, err := exprEval(o.Cond, s.schema)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, &hyracks.SelectSpec{Cond: ev, Desc: o.Cond.String()})
		return s, nil

	case *Project:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		cols, err := columnsOf(s.schema, o.Vs)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, &hyracks.ProjectSpec{Cols: cols})
		s.schema = append([]Var(nil), o.Vs...)
		return s, nil

	case *Unnest:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		ev, err := exprEval(o.E, s.schema)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, &hyracks.UnnestSpec{Expr: ev, Desc: o.Label()})
		s.schema = append(s.schema, o.V)
		return s, nil

	case *Subplan:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		nestedOps, nestedVars, err := c.compileNested(o.Nested, s.schema)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, &hyracks.SubplanSpec{Nested: nestedOps, Desc: "nested plan"})
		s.schema = append(s.schema, nestedVars...)
		return s, nil

	case *Aggregate:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		outVars := Schema(o, nil)
		if s.partitions == 1 {
			defs, err := c.aggDefs(o.Aggs, s.schema, aggSingle)
			if err != nil {
				return nil, err
			}
			s.ops = append(s.ops, &hyracks.AggregateSpec{Aggs: defs, Desc: aggList(o.Aggs)})
			s.schema = outVars
			return s, nil
		}
		if c.opts.TwoStepAggregation && splittable(o.Aggs) {
			local, err := c.aggDefs(o.Aggs, s.schema, aggLocal)
			if err != nil {
				return nil, err
			}
			s.ops = append(s.ops, &hyracks.AggregateSpec{Aggs: local, Desc: "local " + aggList(o.Aggs)})
			exch := c.closeToExchange(s, hyracks.ExchangeMerge, nil, 1)
			gs := &stream{src: hyracks.ExchangeSource{Exchange: exch}, partitions: 1, schema: outVars}
			global := make([]hyracks.AggDef, len(o.Aggs))
			for i, a := range o.Aggs {
				fn, err := runtime.LookupAgg(aggGlobal[a.Fn])
				if err != nil {
					return nil, err
				}
				global[i] = hyracks.AggDef{Fn: fn, Arg: runtime.ColumnEval{Col: i}}
			}
			gs.ops = append(gs.ops, &hyracks.AggregateSpec{Aggs: global, Desc: "global " + aggList(o.Aggs)})
			gs.schema = outVars
			return gs, nil
		}
		// Not splittable (or two-step disabled): merge everything to one
		// partition, then aggregate in a single step.
		exch := c.closeToExchange(s, hyracks.ExchangeMerge, nil, 1)
		gs := &stream{src: hyracks.ExchangeSource{Exchange: exch}, partitions: 1, schema: s.schema}
		defs, err := c.aggDefs(o.Aggs, gs.schema, aggSingle)
		if err != nil {
			return nil, err
		}
		gs.ops = append(gs.ops, &hyracks.AggregateSpec{Aggs: defs, Desc: aggList(o.Aggs)})
		gs.schema = outVars
		return gs, nil

	case *GroupBy:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		keys := make([]Expr, len(o.Keys))
		for i, k := range o.Keys {
			keys[i] = k.E
		}
		keyEvals, err := evalAll(keys, s.schema)
		if err != nil {
			return nil, err
		}
		outVars := Schema(o, nil)
		if s.partitions == 1 {
			defs, err := c.aggDefs(o.Aggs, s.schema, aggSingle)
			if err != nil {
				return nil, err
			}
			s.ops = append(s.ops, &hyracks.GroupBySpec{Keys: keyEvals, Aggs: defs, Desc: o.Label()})
			s.schema = outVars
			return s, nil
		}
		if c.opts.TwoStepAggregation && splittable(o.Aggs) {
			local, err := c.aggDefs(o.Aggs, s.schema, aggLocal)
			if err != nil {
				return nil, err
			}
			s.ops = append(s.ops, &hyracks.GroupBySpec{Keys: keyEvals, Aggs: local, Desc: "local"})
			// After the local group-by the key occupies columns [0,k), on
			// both sides of the exchange.
			keyCols := make([]runtime.Evaluator, len(o.Keys))
			for i := range o.Keys {
				keyCols[i] = runtime.ColumnEval{Col: i}
			}
			parts := s.partitions
			exch := c.closeToExchange(s, hyracks.ExchangeHash, keyCols, parts)
			gs := &stream{src: hyracks.ExchangeSource{Exchange: exch}, partitions: parts}
			global := make([]hyracks.AggDef, len(o.Aggs))
			for i, a := range o.Aggs {
				fn, err := runtime.LookupAgg(aggGlobal[a.Fn])
				if err != nil {
					return nil, err
				}
				global[i] = hyracks.AggDef{Fn: fn, Arg: runtime.ColumnEval{Col: len(o.Keys) + i}}
			}
			gs.ops = append(gs.ops, &hyracks.GroupBySpec{Keys: keyCols, Aggs: global, Desc: "global"})
			gs.schema = outVars
			return gs, nil
		}
		// Single-step over partitioned input: repartition raw tuples by the
		// key expressions, then group in one pass. The schema is unchanged
		// across the exchange, so the key evaluators serve both sides.
		parts := s.partitions
		exch := c.closeToExchange(s, hyracks.ExchangeHash, keyEvals, parts)
		gs := &stream{src: hyracks.ExchangeSource{Exchange: exch}, partitions: parts, schema: s.schema}
		defs, err := c.aggDefs(o.Aggs, gs.schema, aggSingle)
		if err != nil {
			return nil, err
		}
		gs.ops = append(gs.ops, &hyracks.GroupBySpec{Keys: keyEvals, Aggs: defs, Desc: o.Label()})
		gs.schema = outVars
		return gs, nil

	case *Sort:
		s, err := c.compile(o.In)
		if err != nil {
			return nil, err
		}
		// A global order needs all tuples in one place: merge partitioned
		// streams to a single partition before sorting.
		if s.partitions > 1 {
			exch := c.closeToExchange(s, hyracks.ExchangeMerge, nil, 1)
			s = &stream{src: hyracks.ExchangeSource{Exchange: exch}, partitions: 1, schema: s.schema}
		}
		defs := make([]hyracks.SortDef, len(o.Keys))
		for i, k := range o.Keys {
			ev, err := exprEval(k.E, s.schema)
			if err != nil {
				return nil, err
			}
			defs[i] = hyracks.SortDef{Key: ev, Desc: k.Desc}
		}
		s.ops = append(s.ops, &hyracks.SortSpec{Keys: defs, Desc: o.Label()})
		return s, nil

	case *Join:
		return c.compileJoin(o)

	case *DistributeResult:
		return nil, fmt.Errorf("algebricks: nested DISTRIBUTE-RESULT")

	case *NestedTupleSource:
		if c.outer == nil {
			return nil, fmt.Errorf("algebricks: NESTED-TUPLE-SOURCE outside a nested plan")
		}
		return &stream{partitions: 1, schema: append([]Var(nil), c.outer...)}, nil

	default:
		return nil, fmt.Errorf("algebricks: cannot compile %T", op)
	}
}

func (c *compiler) compileJoin(o *Join) (*stream, error) {
	sl, err := c.compile(o.Left)
	if err != nil {
		return nil, err
	}
	sr, err := c.compile(o.Right)
	if err != nil {
		return nil, err
	}
	parts := max(sl.partitions, sr.partitions)
	if len(o.LeftKeys) == 0 {
		// Cross product (no equi keys extracted): all rows meet in a single
		// bucket, so one partition does the work.
		parts = 1
	}
	// Evaluators are stateless (their scratch lives in runtime.Ctx), so one
	// set of key evaluators routes the exchange and drives the join.
	buildKeys, err := evalAll(o.LeftKeys, sl.schema)
	if err != nil {
		return nil, err
	}
	probeKeys, err := evalAll(o.RightKeys, sr.schema)
	if err != nil {
		return nil, err
	}
	combined := append(append([]Var(nil), sl.schema...), sr.schema...)
	bexch := c.closeToExchange(sl, hyracks.ExchangeHash, buildKeys, parts)
	pexch := c.closeToExchange(sr, hyracks.ExchangeHash, probeKeys, parts)
	s := &stream{
		src: hyracks.JoinSource{Build: bexch, Probe: pexch, Spec: &hyracks.JoinSpec{
			BuildKeys: buildKeys, ProbeKeys: probeKeys, Desc: o.Label(),
		}},
		partitions: parts,
		schema:     combined,
	}
	if !isTrueConst(o.Cond) {
		ev, err := exprEval(o.Cond, s.schema)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, &hyracks.SelectSpec{Cond: ev, Desc: "residual " + o.Cond.String()})
	}
	return s, nil
}

func isTrueConst(e Expr) bool {
	c, ok := e.(*ConstExpr)
	if !ok || len(c.Seq) != 1 {
		return false
	}
	b, ok := c.Seq[0].(item.Bool)
	return ok && bool(b)
}

// compileNested lowers a nested (subplan) plan rooted at an Aggregate with a
// NestedTupleSource leaf through compile, into a physical op chain that sees
// the outer tuple as its single input tuple. The lowered stream must still
// have no source: one check rejects both a leaf other than
// NESTED-TUPLE-SOURCE and an operator that closed an exchange (the stream
// would then read from that exchange).
func (c *compiler) compileNested(root Op, outerSchema []Var) ([]hyracks.OpSpec, []Var, error) {
	if _, ok := root.(*Aggregate); !ok {
		return nil, nil, fmt.Errorf("algebricks: nested plan root must be AGGREGATE, got %T", root)
	}
	saved := c.outer
	c.outer = append(make([]Var, 0, len(outerSchema)), outerSchema...)
	s, err := c.compile(root)
	c.outer = saved
	if err != nil {
		return nil, nil, err
	}
	if s.src != nil {
		return nil, nil, fmt.Errorf("algebricks: nested plan must run on its outer tuple alone, but reads %T", s.src)
	}
	return fuseProjects(s.ops), s.schema, nil
}
