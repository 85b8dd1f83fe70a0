package algebricks

import (
	"reflect"
	"testing"

	"vxq/internal/item"
	"vxq/internal/runtime"
)

// TestExprEvalCompilesEncodedShapes: value() chains over a column with
// constant string keys compile to a PathEval, a value comparison of such a
// path with one comparable constant to a CompareEval, and everything else
// stays a CallEval.
func TestExprEvalCompilesEncodedShapes(t *testing.T) {
	schema := []Var{7, 9}
	str := func(s string) Expr { return &ConstExpr{Seq: item.Single(item.String(s))} }
	value := func(in Expr, k Expr) Expr { return &CallExpr{Fn: "value", Args: []Expr{in, k}} }
	path := value(value(&VarExpr{V: 9}, str("a")), str("b"))

	ev, err := exprEval(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	if want := (runtime.PathEval{Col: 1, Keys: []string{"a", "b"}}); !reflect.DeepEqual(ev, want) {
		t.Errorf("value(value($v9,\"a\"),\"b\") compiled to %#v, want %#v", ev, want)
	}
	ev, err = exprEval(&CallExpr{Fn: "eq", Args: []Expr{path, str("TMIN")}}, schema)
	if err != nil {
		t.Fatal(err)
	}
	if ce, ok := ev.(runtime.CompareEval); !ok || !reflect.DeepEqual(ce.Path, runtime.PathEval{Col: 1, Keys: []string{"a", "b"}}) {
		t.Errorf("eq(path, \"TMIN\") compiled to %#v, want a CompareEval on the path", ev)
	}
	for name, e := range map[string]Expr{
		"numeric key":      value(&VarExpr{V: 7}, &ConstExpr{Seq: item.Single(item.Number(1))}),
		"computed key":     value(&VarExpr{V: 7}, &VarExpr{V: 9}),
		"path over a call": value(&CallExpr{Fn: "keys-or-members", Args: []Expr{&VarExpr{V: 7}}}, str("a")),
		"eq of two paths":  &CallExpr{Fn: "eq", Args: []Expr{path, path}},
		"eq with null":     &CallExpr{Fn: "eq", Args: []Expr{path, &ConstExpr{Seq: item.Single(item.Null{})}}},
		"constant first":   &CallExpr{Fn: "eq", Args: []Expr{str("TMIN"), path}},
		"not a comparison": &CallExpr{Fn: "sub", Args: []Expr{path, &ConstExpr{Seq: item.Single(item.Number(1))}}},
	} {
		ev, err := exprEval(e, schema)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := ev.(runtime.CallEval); !ok {
			t.Errorf("%s: compiled to %T, want CallEval", name, ev)
		}
	}
}
