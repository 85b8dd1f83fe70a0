package algebricks

// Column pruning: Algebricks inserts PROJECT operators so that only the
// variables still needed above each operator are carried in its output
// tuples. Without this, an operator chain accumulates every upstream field
// — in the unoptimized plans that means the whole materialized collection
// is copied into every downstream tuple. Pruning runs automatically at the
// start of physical compilation (it is part of the substrate, not of the
// paper's JSONiq rule categories, which are about *what* is materialized,
// not about dead columns).

type varSet map[Var]bool

func (s varSet) clone() varSet {
	out := make(varSet, len(s))
	for v := range s {
		out[v] = true
	}
	return out
}

// addExprs adds every variable op's expression slots reference.
func (s varSet) addExprs(op Op) {
	for _, e := range ExprSlots(op) {
		for _, v := range (*e).FreeVars(nil) {
			s[v] = true
		}
	}
}

// PruneColumns inserts PROJECT operators below each operator so that dead
// columns are dropped as early as possible. It mutates the plan.
func PruneColumns(p *Plan) {
	if dr, ok := p.Root.(*DistributeResult); ok {
		req := varSet{}
		for _, v := range dr.Vs {
			req[v] = true
		}
		dr.In = pruneOp(dr.In, req, nil)
	}
}

// pruneOp prunes the subtree rooted at op, given the set of variables its
// consumers require, and returns the (possibly wrapped) operator. outer is
// the schema a NestedTupleSource exposes. Each input is required to carry
// what passes through op plus what op's expressions reference; the cases
// below differ only in what passes through.
func pruneOp(op Op, required varSet, outer []Var) Op {
	var childReq varSet
	switch o := op.(type) {
	case *Assign:
		childReq = required.clone()
		delete(childReq, o.V)
	case *Unnest:
		childReq = required.clone()
		delete(childReq, o.V)
	case *Select, *Project, *Sort, *Join:
		childReq = required.clone()
	case *Aggregate, *GroupBy:
		// They replace the schema: nothing passes through.
		childReq = varSet{}
	case *Subplan:
		// The nested plan's expressions may reference outer variables
		// (conservatively including nested-internal variables, which simply
		// never occur in the outer schema). Its root is an AGGREGATE, which
		// ignores the required set.
		childReq = required.clone()
		Walk(o.Nested, childReq.addExprs)
		o.Nested = pruneOp(o.Nested, nil, Schema(o.In, outer))
	default:
		// Leaves, DATASCAN and DISTRIBUTE-RESULT (handled by PruneColumns).
		return op
	}
	childReq.addExprs(op)
	for _, in := range op.InputSlots() {
		*in = projectTo(pruneOp(*in, childReq, outer), childReq, outer)
	}
	return op
}

// projectTo wraps child in a PROJECT keeping only the required variables,
// when that actually drops columns.
func projectTo(child Op, required varSet, outer []Var) Op {
	schema := Schema(child, outer)
	keep := make([]Var, 0, len(schema))
	for _, v := range schema {
		if required[v] {
			keep = append(keep, v)
		}
	}
	if len(keep) == len(schema) {
		return child
	}
	if p, ok := child.(*Project); ok {
		p.Vs = keep
		return p
	}
	return &Project{Vs: keep, In: child}
}
