package core

import (
	"slices"

	"vxq/internal/algebricks"
	"vxq/internal/hyracks"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
)

// This file implements the three categories of JSONiq rewrite rules of §4
// as Algebricks rules:
//
//	Path expression rules (§4.1)
//	  - MergeUnnestWithKeysOrMembers: merge UNNEST iterate with the ASSIGN
//	    keys-or-members below it (Fig. 3 -> Fig. 4).
//	  - RemovePromoteData: remove the promote and data guards around
//	    constant arguments (Fig. 3 -> Fig. 4).
//
//	Pipelining rules (§4.2)
//	  - IntroduceDataScan: replace ASSIGN collection + UNNEST iterate with
//	    the DATASCAN operator (Fig. 5 -> Fig. 6).
//	  - MergePathIntoDataScan: fold value and keys-or-members navigation
//	    into the DATASCAN second argument (Fig. 6 -> Fig. 7 -> Fig. 8).
//
//	Group-by rules (§4.3)
//	  - RemoveRedundantTreat: drop ASSIGN treat when the treat type is item
//	    (Fig. 9 -> Fig. 10).
//	  - ConvertCountToAggregate: convert the scalar count over a grouped
//	    sequence into a SUBPLAN with an incremental AGGREGATE
//	    (Fig. 10 -> Fig. 11).
//	  - PushAggregateIntoGroupBy: push the subplan's AGGREGATE down into
//	    the GROUP-BY, eliminating the sequence materialization
//	    (Fig. 11 -> Fig. 12).
//
// Two-step aggregation (the final §4.3 improvement, from [17]) is a
// physical choice made by algebricks.Compile when CompileOptions.
// TwoStepAggregation is set; RuleConfig wires it to the group-by category.

// --- Path expression rules --------------------------------------------------

// MergeUnnestWithKeysOrMembers merges UNNEST $x := iterate($v) with the
// ASSIGN $v := keys-or-members(E) feeding it, producing
// UNNEST $x := keys-or-members(E). This removes the materialization of the
// whole member sequence: each member flows to the next operator as it is
// found (§4.1).
type MergeUnnestWithKeysOrMembers struct{}

// Name implements algebricks.Rule.
func (MergeUnnestWithKeysOrMembers) Name() string { return "merge-unnest-with-keys-or-members" }

// Apply implements algebricks.Rule.
func (MergeUnnestWithKeysOrMembers) Apply(p *algebricks.Plan, slot *algebricks.Op) (bool, error) {
	un, ok := (*slot).(*algebricks.Unnest)
	if !ok {
		return false, nil
	}
	iter, ok := un.E.(*algebricks.CallExpr)
	if !ok || iter.Fn != "iterate" || len(iter.Args) != 1 {
		return false, nil
	}
	src, ok := iter.Args[0].(*algebricks.VarExpr)
	if !ok {
		return false, nil
	}
	asg, ok := un.In.(*algebricks.Assign)
	if !ok || asg.V != src.V {
		return false, nil
	}
	kom, ok := asg.E.(*algebricks.CallExpr)
	if !ok || kom.Fn != "keys-or-members" {
		return false, nil
	}
	if algebricks.VarUsed(p.Root, asg.V, except(un, asg)) {
		return false, nil
	}
	un.E = asg.E
	un.In = asg.In
	return true, nil
}

// RemovePromoteData removes promote(...) and data(...) wrappers around
// constant (string) arguments — the guards the translator inserts around
// the json-doc and collection arguments (§4.1).
type RemovePromoteData struct{}

// Name implements algebricks.Rule.
func (RemovePromoteData) Name() string { return "remove-promote-data" }

// Apply implements algebricks.Rule.
func (RemovePromoteData) Apply(p *algebricks.Plan, slot *algebricks.Op) (bool, error) {
	changed := false
	var strip func(e algebricks.Expr) algebricks.Expr
	strip = func(e algebricks.Expr) algebricks.Expr {
		call, ok := e.(*algebricks.CallExpr)
		if ok && len(call.Args) == 1 &&
			(call.Fn == "promote" || call.Fn == "data" && isConstString(call.Args[0])) {
			changed = true
			return algebricks.MapExpr(call.Args[0], strip)
		}
		return e
	}
	for _, e := range algebricks.ExprSlots(*slot) {
		*e = algebricks.MapExpr(*e, strip)
	}
	return changed, nil
}

func isConstString(e algebricks.Expr) bool {
	c, ok := e.(*algebricks.ConstExpr)
	if !ok || len(c.Seq) != 1 {
		return false
	}
	_, ok = c.Seq[0].(item.String)
	return ok
}

// --- Pipelining rules --------------------------------------------------------

// IntroduceDataScan replaces the pair ASSIGN $c := collection("dir") +
// UNNEST $f := iterate($c) over EMPTY-TUPLE-SOURCE with
// DATASCAN $f <- collection("dir"), enabling per-file streaming and
// partitioned parallelism (§4.2, Fig. 5 -> Fig. 6).
type IntroduceDataScan struct{}

// Name implements algebricks.Rule.
func (IntroduceDataScan) Name() string { return "introduce-datascan" }

// Apply implements algebricks.Rule.
func (IntroduceDataScan) Apply(p *algebricks.Plan, slot *algebricks.Op) (bool, error) {
	un, ok := (*slot).(*algebricks.Unnest)
	if !ok {
		return false, nil
	}
	iter, ok := un.E.(*algebricks.CallExpr)
	if !ok || iter.Fn != "iterate" || len(iter.Args) != 1 {
		return false, nil
	}
	src, ok := iter.Args[0].(*algebricks.VarExpr)
	if !ok {
		return false, nil
	}
	asg, ok := un.In.(*algebricks.Assign)
	if !ok || asg.V != src.V {
		return false, nil
	}
	coll, ok := asg.E.(*algebricks.CallExpr)
	if !ok || coll.Fn != "collection" || len(coll.Args) != 1 {
		return false, nil
	}
	name, ok := constString(coll.Args[0])
	if !ok {
		return false, nil
	}
	if _, ok := asg.In.(*algebricks.EmptyTupleSource); !ok {
		return false, nil
	}
	if algebricks.VarUsed(p.Root, asg.V, except(un, asg)) {
		return false, nil
	}
	*slot = &algebricks.DataScan{
		Collection: name,
		V:          un.V,
		In:         asg.In,
	}
	return true, nil
}

func constString(e algebricks.Expr) (string, bool) {
	c, ok := e.(*algebricks.ConstExpr)
	if !ok || len(c.Seq) != 1 {
		return "", false
	}
	s, ok := c.Seq[0].(item.String)
	return string(s), ok
}

// MergePathIntoDataScan folds navigation into the DATASCAN second argument
// (§4.2, Figs. 6-8). It matches
//
//	UNNEST $x := iterate($v) / keys-or-members($v)
//	  over zero or one ASSIGN $v := <path expression over $d>
//	    over DATASCAN $d
//
// and extends the DATASCAN projection path with the navigation steps, so
// only one matching object at a time is materialized while parsing.
//
// With RecordBoundary set the merge stops after the *first* unnesting step:
// the DATASCAN emits whole records (the first-level array members) and the
// remaining navigation stays above the scan, materializing each record's
// arrays before processing. That models AsterixDB's behaviour (§5.3): its
// external datasets iterate record by record, but "the system waits to
// first gather all the measurements in the array before it moves them to
// the next stage of processing".
type MergePathIntoDataScan struct {
	RecordBoundary bool
}

// Name implements algebricks.Rule.
func (r MergePathIntoDataScan) Name() string {
	if r.RecordBoundary {
		return "merge-record-boundary-into-datascan"
	}
	return "merge-path-into-datascan"
}

// Apply implements algebricks.Rule.
func (r MergePathIntoDataScan) Apply(p *algebricks.Plan, slot *algebricks.Op) (bool, error) {
	un, ok := (*slot).(*algebricks.Unnest)
	if !ok {
		return false, nil
	}
	call, ok := un.E.(*algebricks.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false, nil
	}
	var tail jsonparse.Path
	switch call.Fn {
	case "iterate":
		// iterate splits the projected sequence into tuples, which is what
		// the projector already does: no extra step.
	case "keys-or-members":
		tail = jsonparse.Path{jsonparse.MembersStep()}
	default:
		return false, nil
	}
	srcVar, ok := call.Args[0].(*algebricks.VarExpr)
	if !ok {
		return false, nil
	}

	var scan *algebricks.DataScan
	var steps jsonparse.Path
	inside := []algebricks.Op{un}

	if sc, ok := un.In.(*algebricks.DataScan); ok && sc.V == srcVar.V {
		// Case 1: the unnest input is the DATASCAN itself.
		scan = sc
		inside = append(inside, sc)
	} else if asg, ok := un.In.(*algebricks.Assign); ok && asg.V == srcVar.V {
		// Case 2: an ASSIGN with a pure path expression sits between.
		sc, ok := asg.In.(*algebricks.DataScan)
		if !ok {
			return false, nil
		}
		steps, ok = pathSteps(asg.E, sc.V)
		if !ok {
			return false, nil
		}
		if algebricks.VarUsed(p.Root, asg.V, except(un, asg)) {
			return false, nil
		}
		scan = sc
		inside = append(inside, asg, sc)
	} else {
		return false, nil
	}
	if algebricks.VarUsed(p.Root, scan.V, except(inside...)) {
		return false, nil
	}

	full := scan.Project.Append(steps...)
	full = full.Append(tail...)
	if !r.RecordBoundary {
		scan.Project = full
		scan.V = un.V
		*slot = scan
		return true, nil
	}

	// Record-boundary mode: merge only through the first members step.
	boundary := -1
	for i, st := range full {
		if st.Kind == jsonparse.StepMembers {
			boundary = i
			break
		}
	}
	if len(scan.Project) > 0 {
		// Already at (or past) the record boundary: no further merging.
		return false, nil
	}
	if boundary < 0 || boundary == len(full)-1 {
		// The whole path ends at the boundary: full merge is exact.
		scan.Project = full
		scan.V = un.V
		*slot = scan
		return true, nil
	}
	head := full[:boundary+1]
	rest := full[boundary+1:]
	record := p.Vars.New()
	scan.Project = head
	scan.V = record
	// Rebuild the remaining navigation above the scan.
	if rest[len(rest)-1].Kind == jsonparse.StepMembers {
		un.E = algebricks.Call("keys-or-members", stepsToExpr(rest[:len(rest)-1], record))
	} else {
		un.E = algebricks.Call("iterate", stepsToExpr(rest, record))
	}
	un.In = scan
	*slot = un
	return true, nil
}

// stepsToExpr rebuilds a navigation expression from projection steps over a
// root variable.
func stepsToExpr(steps jsonparse.Path, root algebricks.Var) algebricks.Expr {
	var e algebricks.Expr = algebricks.VarRef(root)
	for _, st := range steps {
		switch st.Kind {
		case jsonparse.StepKey:
			e = algebricks.Call("value", e, algebricks.Str(st.Key))
		case jsonparse.StepIndex:
			e = algebricks.Call("value", e, algebricks.Num(float64(st.Index)))
		case jsonparse.StepMembers:
			e = algebricks.Call("keys-or-members", e)
		}
	}
	return e
}

// pathSteps converts a pure navigation expression rooted at root into
// projection steps: value with constant string keys or numeric indexes, and
// keys-or-members.
func pathSteps(e algebricks.Expr, root algebricks.Var) (jsonparse.Path, bool) {
	switch x := e.(type) {
	case *algebricks.VarExpr:
		if x.V == root {
			return nil, true
		}
		return nil, false
	case *algebricks.CallExpr:
		switch x.Fn {
		case "value":
			if len(x.Args) != 2 {
				return nil, false
			}
			inner, ok := pathSteps(x.Args[0], root)
			if !ok {
				return nil, false
			}
			c, ok := x.Args[1].(*algebricks.ConstExpr)
			if !ok || len(c.Seq) != 1 {
				return nil, false
			}
			switch k := c.Seq[0].(type) {
			case item.String:
				return append(inner, jsonparse.KeyStep(string(k))), true
			case item.Number:
				return append(inner, jsonparse.IndexStep(int(k))), true
			default:
				return nil, false
			}
		case "keys-or-members":
			if len(x.Args) != 1 {
				return nil, false
			}
			inner, ok := pathSteps(x.Args[0], root)
			if !ok {
				return nil, false
			}
			return append(inner, jsonparse.MembersStep()), true
		default:
			return nil, false
		}
	default:
		return nil, false
	}
}

// --- Group-by rules ----------------------------------------------------------

// RemoveRedundantTreat removes ASSIGN $t := treat($a) operators (the treat
// type argument is item in this subset, so treat is always redundant) and
// redirects uses of $t to $a (§4.3, Fig. 9 -> Fig. 10).
type RemoveRedundantTreat struct{}

// Name implements algebricks.Rule.
func (RemoveRedundantTreat) Name() string { return "remove-redundant-treat" }

// Apply implements algebricks.Rule.
func (RemoveRedundantTreat) Apply(p *algebricks.Plan, slot *algebricks.Op) (bool, error) {
	asg, ok := (*slot).(*algebricks.Assign)
	if !ok {
		return false, nil
	}
	treat, ok := asg.E.(*algebricks.CallExpr)
	if !ok || treat.Fn != "treat" || len(treat.Args) != 1 {
		return false, nil
	}
	algebricks.SubstVar(p.Root, asg.V, treat.Args[0])
	*slot = asg.In
	return true, nil
}

// ConvertCountToAggregate converts a scalar aggregate over a grouped
// sequence — ASSIGN $c := count(f($a)) directly above a GROUP-BY whose
// nested plan produced $a with AGGREGATE sequence — into a SUBPLAN whose
// nested plan iterates the sequence and counts incrementally (§4.3,
// Fig. 10 -> Fig. 11). This also resolves the type conflict of applying
// value() to a sequence: the navigation moves inside the subplan where it
// applies to one item at a time.
type ConvertCountToAggregate struct{}

// Name implements algebricks.Rule.
func (ConvertCountToAggregate) Name() string { return "convert-count-to-aggregate" }

// Apply implements algebricks.Rule.
func (ConvertCountToAggregate) Apply(p *algebricks.Plan, slot *algebricks.Op) (bool, error) {
	asg, ok := (*slot).(*algebricks.Assign)
	if !ok {
		return false, nil
	}
	gb := groupByBelow(asg.In)
	if gb == nil {
		return false, nil
	}
	// Find an aggregate call over a grouped sequence anywhere inside the
	// assign's expression (it may be nested in a constructor or arithmetic).
	cnt := findAggOverSequence(asg.E, gb)
	if cnt == nil {
		return false, nil
	}
	seqVar, _ := singleSequenceVar(cnt.Args[0], gb)
	j := p.Vars.New()
	arg := algebricks.MapExpr(cnt.Args[0], algebricks.ReplaceVar(seqVar, algebricks.VarRef(j)))
	if cnt == asg.E {
		// The whole expression is the aggregate: the subplan produces the
		// assign's variable directly and the assign disappears.
		nested := &algebricks.Aggregate{
			Aggs: []algebricks.AggExpr{{V: asg.V, Fn: cnt.Fn, Arg: arg}},
			In: &algebricks.Unnest{
				V: j, E: algebricks.Call("iterate", algebricks.VarRef(seqVar)),
				In: &algebricks.NestedTupleSource{},
			},
		}
		*slot = &algebricks.Subplan{Nested: nested, In: asg.In}
		return true, nil
	}
	// The aggregate is a subexpression: extract it into its own variable
	// produced by a subplan below the assign, and substitute the reference.
	cv := p.Vars.New()
	nested := &algebricks.Aggregate{
		Aggs: []algebricks.AggExpr{{V: cv, Fn: cnt.Fn, Arg: arg}},
		In: &algebricks.Unnest{
			V: j, E: algebricks.Call("iterate", algebricks.VarRef(seqVar)),
			In: &algebricks.NestedTupleSource{},
		},
	}
	asg.E = algebricks.MapExpr(asg.E, func(e algebricks.Expr) algebricks.Expr {
		if e == cnt {
			return algebricks.VarRef(cv)
		}
		return e
	})
	asg.In = &algebricks.Subplan{Nested: nested, In: asg.In}
	return true, nil
}

var aggregateRuleFns = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// findAggOverSequence returns the first aggregate call whose single
// argument references exactly one grouped sequence variable of gb, searching
// e depth-first.
func findAggOverSequence(e algebricks.Expr, gb *algebricks.GroupBy) *algebricks.CallExpr {
	call, ok := e.(*algebricks.CallExpr)
	if !ok {
		return nil
	}
	if aggregateRuleFns[call.Fn] && len(call.Args) == 1 {
		if _, ok := singleSequenceVar(call.Args[0], gb); ok {
			return call
		}
	}
	for _, a := range call.Args {
		if found := findAggOverSequence(a, gb); found != nil {
			return found
		}
	}
	return nil
}

// groupByBelow returns the GroupBy reachable from op through Assigns (other
// operators block the match), or nil.
func groupByBelow(op algebricks.Op) *algebricks.GroupBy {
	for {
		switch o := op.(type) {
		case *algebricks.GroupBy:
			return o
		case *algebricks.Assign:
			op = o.In
		default:
			return nil
		}
	}
}

// singleSequenceVar checks that e references exactly one variable and that
// this variable is produced by one of gb's sequence aggregates.
func singleSequenceVar(e algebricks.Expr, gb *algebricks.GroupBy) (algebricks.Var, bool) {
	free := e.FreeVars(nil)
	if len(free) != 1 {
		return 0, false
	}
	for _, a := range gb.Aggs {
		if a.V == free[0] && a.Fn == "sequence" {
			return free[0], true
		}
	}
	return 0, false
}

// PushAggregateIntoGroupBy pushes a SUBPLAN's incremental AGGREGATE down
// into the GROUP-BY below it, replacing the sequence aggregate: the count
// is computed while each group is formed, and no sequence is ever
// materialized (§4.3, Fig. 11 -> Fig. 12).
type PushAggregateIntoGroupBy struct{}

// Name implements algebricks.Rule.
func (PushAggregateIntoGroupBy) Name() string { return "push-aggregate-into-group-by" }

// Apply implements algebricks.Rule.
func (PushAggregateIntoGroupBy) Apply(p *algebricks.Plan, slot *algebricks.Op) (bool, error) {
	sp, ok := (*slot).(*algebricks.Subplan)
	if !ok {
		return false, nil
	}
	gb, ok := sp.In.(*algebricks.GroupBy)
	if !ok {
		return false, nil
	}
	agg, ok := sp.Nested.(*algebricks.Aggregate)
	if !ok || len(agg.Aggs) != 1 {
		return false, nil
	}
	// Walk the nested chain below the aggregate: inline assigns, then
	// expect UNNEST iterate($seqVar) over NESTED-TUPLE-SOURCE.
	arg := agg.Aggs[0].Arg
	opBelow := agg.In
	for {
		asg, ok := opBelow.(*algebricks.Assign)
		if !ok {
			break
		}
		arg = algebricks.MapExpr(arg, algebricks.ReplaceVar(asg.V, asg.E))
		opBelow = asg.In
	}
	un, ok := opBelow.(*algebricks.Unnest)
	if !ok {
		return false, nil
	}
	if _, ok := un.In.(*algebricks.NestedTupleSource); !ok {
		return false, nil
	}
	iter, ok := un.E.(*algebricks.CallExpr)
	if !ok || iter.Fn != "iterate" || len(iter.Args) != 1 {
		return false, nil
	}
	seqRef, ok := iter.Args[0].(*algebricks.VarExpr)
	if !ok {
		return false, nil
	}
	// Find the matching sequence aggregate in the group-by.
	idx := -1
	for i, a := range gb.Aggs {
		if a.V == seqRef.V && a.Fn == "sequence" {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, nil
	}
	// The aggregate argument, with the per-item variable substituted by the
	// group-by input expression, becomes the pushed-down aggregate.
	pushedArg := algebricks.MapExpr(arg, algebricks.ReplaceVar(un.V, gb.Aggs[idx].Arg))
	newAgg := algebricks.AggExpr{V: agg.Aggs[0].V, Fn: agg.Aggs[0].Fn, Arg: pushedArg}
	inside := []algebricks.Op{sp, gb}
	algebricks.Walk(sp.Nested, func(op algebricks.Op) { inside = append(inside, op) })
	if algebricks.VarUsed(p.Root, seqRef.V, except(inside...)) {
		// The sequence is still needed elsewhere: add the new aggregate
		// alongside instead of replacing.
		gb.Aggs = append(gb.Aggs, newAgg)
	} else {
		gb.Aggs[idx] = newAgg
	}
	*slot = gb
	return true, nil
}

// --- shared helpers ----------------------------------------------------------

// except is the algebricks.VarUsed skip function for the operators a rule is
// about to merge or remove: their own references do not count.
func except(ops ...algebricks.Op) func(algebricks.Op) bool {
	return func(op algebricks.Op) bool { return slices.Contains(ops, op) }
}

// --- Index rule (the paper's §6 future work) ---------------------------------

// PushRangeFilterIntoDataScan attaches a zone-map range filter to a DATASCAN
// when a SELECT directly above it bounds a scalar path of the scanned items
// with constant comparisons. The SELECT itself is kept — the filter only
// lets the scan skip files and morsels whose indexed [min,max] zones cannot
// satisfy the predicate, implementing the paper's future-work direction:
// "indexing will further improve the system's performance since the
// searched data volume will be significantly reduced" (§6).
type PushRangeFilterIntoDataScan struct{}

// Name implements algebricks.Rule.
func (PushRangeFilterIntoDataScan) Name() string { return "push-range-filter-into-datascan" }

// Apply implements algebricks.Rule.
func (PushRangeFilterIntoDataScan) Apply(p *algebricks.Plan, slot *algebricks.Op) (bool, error) {
	sel, ok := (*slot).(*algebricks.Select)
	if !ok {
		return false, nil
	}
	scan, ok := sel.In.(*algebricks.DataScan)
	if !ok || scan.Filter != nil {
		return false, nil
	}
	// Collect range bounds per relative path; use the first path that has
	// any bound.
	var filter *hyracks.ScanFilter
	for _, conj := range algebricks.Conjuncts(sel.Cond) {
		call, ok := conj.(*algebricks.CallExpr)
		if !ok || len(call.Args) != 2 {
			continue
		}
		pathArg, constArg := call.Args[0], call.Args[1]
		op := call.Fn
		steps, ok := pathSteps(pathArg, scan.V)
		if !ok {
			// Try the flipped orientation: const cmp path.
			steps, ok = pathSteps(constArg, scan.V)
			if !ok {
				continue
			}
			pathArg, constArg = constArg, pathArg
			op = flipComparison(op)
		}
		c, ok := constArg.(*algebricks.ConstExpr)
		if !ok || len(c.Seq) != 1 {
			continue
		}
		switch c.Seq[0].Kind() {
		case item.KindObject, item.KindArray:
			continue
		}
		bound := c.Seq[0]
		full := scan.Project.Append(steps...)
		if filter == nil {
			filter = &hyracks.ScanFilter{Path: full}
		} else if !filter.Path.Equal(full) {
			continue // a different path; one filter per scan
		}
		switch op {
		case "eq":
			tightenLo(filter, bound, false)
			tightenHi(filter, bound, false)
		case "ge":
			tightenLo(filter, bound, false)
		case "gt":
			tightenLo(filter, bound, true)
		case "le":
			tightenHi(filter, bound, false)
		case "lt":
			tightenHi(filter, bound, true)
		default:
			if filter.Lo == nil && filter.Hi == nil {
				filter = nil // the first conjunct didn't contribute a bound
			}
			continue
		}
	}
	if filter == nil || (filter.Lo == nil && filter.Hi == nil) {
		return false, nil
	}
	scan.Filter = filter
	return true, nil
}

func flipComparison(op string) string {
	switch op {
	case "lt":
		return "gt"
	case "le":
		return "ge"
	case "gt":
		return "lt"
	case "ge":
		return "le"
	default:
		return op // eq/ne are symmetric
	}
}

func tightenLo(f *hyracks.ScanFilter, bound item.Item, strict bool) {
	if f.Lo == nil || item.Compare(bound, f.Lo) > 0 {
		f.Lo, f.LoStrict = bound, strict
	} else if item.Compare(bound, f.Lo) == 0 && strict {
		f.LoStrict = true
	}
}

func tightenHi(f *hyracks.ScanFilter, bound item.Item, strict bool) {
	if f.Hi == nil || item.Compare(bound, f.Hi) < 0 {
		f.Hi, f.HiStrict = bound, strict
	} else if item.Compare(bound, f.Hi) == 0 && strict {
		f.HiStrict = true
	}
}
