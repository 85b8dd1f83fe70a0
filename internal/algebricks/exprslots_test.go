package algebricks

import (
	"reflect"
	"testing"
)

// fillVarRefs sets every expression field reachable from x (through
// structs and slices, one element per slice) to VarRef(v), every variable
// list to [v] and every operator field to EMPTY-TUPLE-SOURCE. It returns
// the number of expression fields set. The fields are found by reflection,
// so a field added to an operator is filled without touching the test.
func fillVarRefs(x reflect.Value, v Var) int {
	switch t := x.Type(); {
	case t == reflect.TypeFor[Expr]():
		x.Set(reflect.ValueOf(Expr(VarRef(v))))
		return 1
	case t == reflect.TypeFor[Op]():
		x.Set(reflect.ValueOf(Op(&EmptyTupleSource{})))
	case t == reflect.TypeFor[[]Var]():
		x.Set(reflect.ValueOf([]Var{v}))
	case t.Kind() == reflect.Slice:
		x.Set(reflect.MakeSlice(t, 1, 1))
		return fillVarRefs(x.Index(0), v)
	case t.Kind() == reflect.Struct:
		n := 0
		for i := 0; i < x.NumField(); i++ {
			n += fillVarRefs(x.Field(i), v)
		}
		return n
	}
	return 0
}

// TestExprSlotsCoverEveryField builds one instance of every operator type
// with VarRef(v) in every expression field and checks that ExprSlots lists
// each field, that VarUsed finds v, and that SubstVar removes it. An
// expression field missing from ExprSlots fails here rather than in a
// rewrite rule that cannot see it.
func TestExprSlotsCoverEveryField(t *testing.T) {
	const v, w = Var(7), Var(8)
	ops := []Op{
		&EmptyTupleSource{}, &NestedTupleSource{}, &DataScan{}, &Assign{}, &Select{},
		&Unnest{}, &Aggregate{}, &GroupBy{}, &Subplan{}, &Join{}, &Sort{}, &Project{},
		&DistributeResult{},
	}
	for _, op := range ops {
		n := fillVarRefs(reflect.ValueOf(op).Elem(), v)
		if got := len(ExprSlots(op)); got != n {
			t.Errorf("%T: ExprSlots lists %d fields, the operator has %d expression fields", op, got, n)
		}
		_, lists := op.(*Project)
		if _, ok := op.(*DistributeResult); ok {
			lists = true
		}
		if sp, ok := op.(*Subplan); ok {
			// A subplan holds its expressions in the nested plan.
			sp.Nested = &Assign{V: w + 1, E: VarRef(v), In: &NestedTupleSource{}}
			n = 1
		}
		uses := n > 0 || lists
		if got := VarUsed(op, v, nil); got != uses {
			t.Errorf("%T: VarUsed = %v, want %v", op, got, uses)
		}
		if VarUsed(op, v, func(o Op) bool { return true }) {
			t.Errorf("%T: VarUsed counted an operator it was told to skip", op)
		}
		SubstVar(op, v, VarRef(w))
		if VarUsed(op, v, nil) {
			t.Errorf("%T: SubstVar left a reference to %v", op, v)
		}
		if got := VarUsed(op, w, nil); got != uses {
			t.Errorf("%T: after SubstVar VarUsed(%v) = %v, want %v", op, w, got, uses)
		}
	}
}
