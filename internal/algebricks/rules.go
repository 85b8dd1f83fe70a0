package algebricks

// Generic, language-agnostic rewrite rules provided by the Algebricks layer
// itself (§3.1: "built-in optimization rules that it provides"). The
// JSONiq-specific rule categories of §4 live in vxq/internal/core.

// RemoveUnusedAssign removes ASSIGN operators whose variable is referenced
// nowhere else in the plan (dead code introduced by other rewrites).
type RemoveUnusedAssign struct{}

// Name implements Rule.
func (RemoveUnusedAssign) Name() string { return "remove-unused-assign" }

// Apply implements Rule.
func (RemoveUnusedAssign) Apply(p *Plan, slot *Op) (bool, error) {
	a, ok := (*slot).(*Assign)
	if !ok {
		return false, nil
	}
	if VarUsed(p.Root, a.V, func(op Op) bool { return op == a }) {
		return false, nil
	}
	*slot = a.In
	return true, nil
}

// Conjuncts flattens nested and(...) calls into a list of conjuncts.
func Conjuncts(e Expr) []Expr {
	if c, ok := e.(*CallExpr); ok && c.Fn == "and" {
		var out []Expr
		for _, a := range c.Args {
			out = append(out, Conjuncts(a)...)
		}
		return out
	}
	return []Expr{e}
}

// AndOf rebuilds a conjunction (True for an empty list).
func AndOf(cs []Expr) Expr {
	switch len(cs) {
	case 0:
		return True()
	case 1:
		return cs[0]
	default:
		return Call("and", cs...)
	}
}

// ExtractJoinCondition is the classic Algebricks join recognition rule: a
// SELECT directly above a cross-product JOIN is split into (a) conjuncts
// that reference only the left branch, pushed left; (b) conjuncts that
// reference only the right branch, pushed right; (c) equality conjuncts
// spanning both branches, which become hash-join keys; (d) a residual that
// stays in the join condition.
type ExtractJoinCondition struct{}

// Name implements Rule.
func (ExtractJoinCondition) Name() string { return "extract-join-condition" }

// Apply implements Rule.
func (ExtractJoinCondition) Apply(p *Plan, slot *Op) (bool, error) {
	sel, ok := (*slot).(*Select)
	if !ok {
		return false, nil
	}
	join, ok := sel.In.(*Join)
	if !ok || len(join.LeftKeys) > 0 {
		return false, nil
	}
	leftVars := Schema(join.Left, nil)
	rightVars := Schema(join.Right, nil)

	var leftPush, rightPush, residual []Expr
	var lk, rk []Expr
	for _, c := range Conjuncts(sel.Cond) {
		switch {
		case UsesOnly(c, leftVars):
			leftPush = append(leftPush, c)
		case UsesOnly(c, rightVars):
			rightPush = append(rightPush, c)
		default:
			if call, ok := c.(*CallExpr); ok && call.Fn == "eq" && len(call.Args) == 2 {
				a, b := call.Args[0], call.Args[1]
				switch {
				case UsesOnly(a, leftVars) && UsesOnly(b, rightVars):
					lk = append(lk, a)
					rk = append(rk, b)
					continue
				case UsesOnly(b, leftVars) && UsesOnly(a, rightVars):
					lk = append(lk, b)
					rk = append(rk, a)
					continue
				}
			}
			residual = append(residual, c)
		}
	}
	if len(lk) == 0 && len(leftPush) == 0 && len(rightPush) == 0 {
		return false, nil
	}
	for _, c := range leftPush {
		join.Left = &Select{Cond: c, In: join.Left}
	}
	for _, c := range rightPush {
		join.Right = &Select{Cond: c, In: join.Right}
	}
	join.LeftKeys = lk
	join.RightKeys = rk
	join.Cond = AndOf(residual)
	*slot = join
	return true, nil
}

// PushSelectBelowAssign moves a SELECT below an ASSIGN whose variable the
// condition does not reference, so filters run as early as possible.
type PushSelectBelowAssign struct{}

// Name implements Rule.
func (PushSelectBelowAssign) Name() string { return "push-select-below-assign" }

// Apply implements Rule.
func (PushSelectBelowAssign) Apply(p *Plan, slot *Op) (bool, error) {
	sel, ok := (*slot).(*Select)
	if !ok {
		return false, nil
	}
	a, ok := sel.In.(*Assign)
	if !ok || UsesVar(sel.Cond, a.V) {
		return false, nil
	}
	sel.In = a.In
	a.In = sel
	*slot = a
	return true, nil
}
