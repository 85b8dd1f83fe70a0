package algebricks

import (
	"fmt"
	"slices"
	"strings"
)

// Plan is a logical query plan: an operator tree rooted at a
// DistributeResult, plus the variable allocator used to create fresh
// variables during rewriting.
type Plan struct {
	Root Op
	Vars *VarAllocator
}

// NewPlan wraps a root operator.
func NewPlan(root Op, vars *VarAllocator) *Plan {
	if vars == nil {
		vars = &VarAllocator{}
	}
	return &Plan{Root: root, Vars: vars}
}

// String renders the plan top-down with indentation, in the style of the
// paper's plan figures.
func (p *Plan) String() string {
	var b strings.Builder
	printOp(&b, p.Root, 0)
	return b.String()
}

func printOp(b *strings.Builder, op Op, depth int) {
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), op.Label())
	if sp, ok := op.(*Subplan); ok {
		fmt.Fprintf(b, "%s{\n", strings.Repeat("  ", depth+1))
		printOp(b, sp.Nested, depth+2)
		fmt.Fprintf(b, "%s}\n", strings.Repeat("  ", depth+1))
	}
	for _, slot := range op.InputSlots() {
		printOp(b, *slot, depth+1)
	}
}

// Schema computes the variables visible at the output of op. outer is the
// schema a NestedTupleSource exposes (nil outside nested plans).
func Schema(op Op, outer []Var) []Var {
	switch o := op.(type) {
	case *EmptyTupleSource:
		return nil
	case *NestedTupleSource:
		return append([]Var(nil), outer...)
	case *DataScan:
		return append(Schema(o.In, outer), o.V)
	case *Assign:
		return append(Schema(o.In, outer), o.V)
	case *Select:
		return Schema(o.In, outer)
	case *Project:
		return append([]Var(nil), o.Vs...)
	case *Sort:
		return Schema(o.In, outer)
	case *Unnest:
		return append(Schema(o.In, outer), o.V)
	case *Aggregate:
		vs := make([]Var, len(o.Aggs))
		for i, a := range o.Aggs {
			vs[i] = a.V
		}
		return vs
	case *GroupBy:
		var vs []Var
		for _, k := range o.Keys {
			vs = append(vs, k.V)
		}
		for _, a := range o.Aggs {
			vs = append(vs, a.V)
		}
		return vs
	case *Subplan:
		in := Schema(o.In, outer)
		nested := Schema(o.Nested, in)
		return append(in, nested...)
	case *Join:
		return append(Schema(o.Left, outer), Schema(o.Right, outer)...)
	case *DistributeResult:
		return Schema(o.In, outer)
	default:
		panic(fmt.Sprintf("algebricks: unknown operator %T", op))
	}
}

// Walk calls visit on every operator of the tree rooted at root, parents
// before children, following input slots and subplans' nested plans.
func Walk(root Op, visit func(Op)) {
	visit(root)
	if sp, ok := root.(*Subplan); ok {
		Walk(sp.Nested, visit)
	}
	for _, in := range root.InputSlots() {
		Walk(*in, visit)
	}
}

// varList returns the variable list of a PROJECT or DISTRIBUTE-RESULT, the
// operators that reference variables directly rather than through
// expressions (nil for every other operator).
func varList(op Op) []Var {
	switch o := op.(type) {
	case *Project:
		return o.Vs
	case *DistributeResult:
		return o.Vs
	}
	return nil
}

// VarUsed reports whether v is referenced anywhere in the tree rooted at
// root — by an expression slot or a variable list — other than by the
// operators skip reports (nil skips none).
func VarUsed(root Op, v Var, skip func(Op) bool) bool {
	used := false
	Walk(root, func(op Op) {
		if used || (skip != nil && skip(op)) {
			return
		}
		for _, e := range ExprSlots(op) {
			used = used || UsesVar(*e, v)
		}
		used = used || slices.Contains(varList(op), v)
	})
	return used
}

// SubstVar replaces every reference to from in the tree rooted at root with
// a copy of to. When to is itself a variable, variable lists are renamed
// too.
func SubstVar(root Op, from Var, to Expr) {
	replace := ReplaceVar(from, to)
	Walk(root, func(op Op) {
		for _, e := range ExprSlots(op) {
			*e = MapExpr(*e, replace)
		}
		if tv, ok := to.(*VarExpr); ok {
			vs := varList(op)
			for i := range vs {
				if vs[i] == from {
					vs[i] = tv.V
				}
			}
		}
	})
}

// WalkSlots visits every operator slot of the plan bottom-up (children
// before parents), including nested plans. The visitor may replace the slot
// contents; it returns whether it changed anything.
func (p *Plan) WalkSlots(visit func(slot *Op) (bool, error)) (bool, error) {
	return walkSlot(&p.Root, visit)
}

func walkSlot(slot *Op, visit func(slot *Op) (bool, error)) (bool, error) {
	changed := false
	for _, in := range (*slot).InputSlots() {
		c, err := walkSlot(in, visit)
		if err != nil {
			return changed, err
		}
		changed = changed || c
	}
	if sp, ok := (*slot).(*Subplan); ok {
		c, err := walkSlot(sp.NestedSlot(), visit)
		if err != nil {
			return changed, err
		}
		changed = changed || c
	}
	c, err := visit(slot)
	if err != nil {
		return changed, err
	}
	return changed || c, nil
}

// Rule is one rewrite rule. Apply inspects the operator in slot (and its
// children) and may replace the slot contents; it reports whether it
// changed the plan.
type Rule interface {
	Name() string
	Apply(p *Plan, slot *Op) (bool, error)
}

// maxRewritePasses bounds fixpoint iteration as a safety net against
// oscillating rules.
const maxRewritePasses = 256

// Rewrite applies the rule set bottom-up repeatedly until no rule fires.
func (p *Plan) Rewrite(rules []Rule) error {
	for pass := 0; ; pass++ {
		if pass >= maxRewritePasses {
			return fmt.Errorf("algebricks: rewrite did not reach a fixpoint after %d passes", maxRewritePasses)
		}
		changed, err := p.WalkSlots(func(slot *Op) (bool, error) {
			any := false
			for _, r := range rules {
				c, err := r.Apply(p, slot)
				if err != nil {
					return any, fmt.Errorf("rule %s: %w", r.Name(), err)
				}
				any = any || c
			}
			return any, nil
		})
		if err != nil {
			return err
		}
		if !changed {
			return nil
		}
	}
}
