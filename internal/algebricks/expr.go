// Package algebricks implements the language-agnostic query algebra layer
// underneath the JSONiq processor, modeled on Algebricks (Borkar et al.,
// SoCC 2015): a logical operator algebra, a rewrite-rule framework applied
// to fixpoint, and a physical compiler that turns the optimized logical
// plan into a Hyracks job (vxq/internal/hyracks), choosing exchanges and
// the two-step aggregation scheme.
package algebricks

import (
	"fmt"
	"strings"

	"vxq/internal/item"
)

// Var is a logical variable produced by an operator and referenced by
// expressions of the operators above it.
type Var int

// String renders the variable as $vN.
func (v Var) String() string { return fmt.Sprintf("$v%d", int(v)) }

// VarAllocator hands out fresh variables.
type VarAllocator struct{ next Var }

// New returns a fresh variable.
func (a *VarAllocator) New() Var {
	v := a.next
	a.next++
	return v
}

// Expr is a logical scalar expression.
type Expr interface {
	String() string
	// FreeVars appends the variables the expression references.
	FreeVars(dst []Var) []Var
	// Clone returns a deep copy.
	Clone() Expr
}

// VarExpr references a variable.
type VarExpr struct{ V Var }

// String implements Expr.
func (e *VarExpr) String() string { return e.V.String() }

// FreeVars implements Expr.
func (e *VarExpr) FreeVars(dst []Var) []Var { return append(dst, e.V) }

// Clone implements Expr.
func (e *VarExpr) Clone() Expr { return &VarExpr{V: e.V} }

// ConstExpr is a constant sequence.
type ConstExpr struct{ Seq item.Sequence }

// String implements Expr.
func (e *ConstExpr) String() string { return item.JSONSeq(e.Seq) }

// FreeVars implements Expr.
func (e *ConstExpr) FreeVars(dst []Var) []Var { return dst }

// Clone implements Expr.
func (e *ConstExpr) Clone() Expr { return &ConstExpr{Seq: e.Seq} }

// CallExpr applies a named scalar function (resolved against the runtime
// function registry at compile time) to argument expressions.
type CallExpr struct {
	Fn   string
	Args []Expr
}

// String implements Expr.
func (e *CallExpr) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Fn + "(" + strings.Join(args, ", ") + ")"
}

// FreeVars implements Expr.
func (e *CallExpr) FreeVars(dst []Var) []Var {
	for _, a := range e.Args {
		dst = a.FreeVars(dst)
	}
	return dst
}

// Clone implements Expr.
func (e *CallExpr) Clone() Expr {
	args := make([]Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.Clone()
	}
	return &CallExpr{Fn: e.Fn, Args: args}
}

// Call builds a CallExpr.
func Call(fn string, args ...Expr) *CallExpr { return &CallExpr{Fn: fn, Args: args} }

// VarRef builds a VarExpr.
func VarRef(v Var) *VarExpr { return &VarExpr{V: v} }

// Str builds a string constant.
func Str(s string) *ConstExpr { return &ConstExpr{Seq: item.Single(item.String(s))} }

// Num builds a numeric constant.
func Num(n float64) *ConstExpr { return &ConstExpr{Seq: item.Single(item.Number(n))} }

// True is the boolean true constant.
func True() *ConstExpr { return &ConstExpr{Seq: item.Single(item.Bool(true))} }

// MapExpr returns e rebuilt with f applied to every node, top-down: where f
// returns a different expression, that result replaces the node and is not
// descended into; otherwise the node's arguments are mapped in turn. Call
// nodes are rebuilt and leaves f keeps are shared; e itself is never
// modified, so f may match a node by pointer identity.
func MapExpr(e Expr, f func(Expr) Expr) Expr {
	if r := f(e); r != e {
		return r
	}
	c, ok := e.(*CallExpr)
	if !ok {
		return e
	}
	args := make([]Expr, len(c.Args))
	for i, a := range c.Args {
		args[i] = MapExpr(a, f)
	}
	return &CallExpr{Fn: c.Fn, Args: args}
}

// ReplaceVar is the MapExpr function that replaces every reference to from
// with a copy of to.
func ReplaceVar(from Var, to Expr) func(Expr) Expr {
	return func(e Expr) Expr {
		if x, ok := e.(*VarExpr); ok && x.V == from {
			return to.Clone()
		}
		return e
	}
}

// UsesVar reports whether e references v.
func UsesVar(e Expr, v Var) bool {
	for _, f := range e.FreeVars(nil) {
		if f == v {
			return true
		}
	}
	return false
}

// UsesOnly reports whether every variable e references is in allowed.
func UsesOnly(e Expr, allowed []Var) bool {
	set := make(map[Var]bool, len(allowed))
	for _, v := range allowed {
		set[v] = true
	}
	for _, f := range e.FreeVars(nil) {
		if !set[f] {
			return false
		}
	}
	return true
}
