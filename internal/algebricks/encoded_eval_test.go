package algebricks

import (
	"reflect"
	"testing"

	"vxq/internal/item"
	"vxq/internal/runtime"
)

// TestExprEvalCompilesEncodedShapes: value() chains over a column with
// constant string keys compile to a PathEval, a value comparison of an
// encoded operand (such a path, a bare column, or a call compiled to an
// encoded appender) with one comparable constant to a CompareEval,
// dateTime(o), dateTime(data(o)) and the date parts of an encoded operand
// to DateTimeEval and DatePartEval, and everything else (the connectives
// included) stays a CallEval.
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
	if ce, ok := ev.(runtime.CompareEval); !ok || !reflect.DeepEqual(ce.Arg, runtime.PathEval{Col: 1, Keys: []string{"a", "b"}}) {
		t.Errorf("eq(path, \"TMIN\") compiled to %#v, want a CompareEval on the path", ev)
	}
	call := func(fn string, args ...Expr) Expr { return &CallExpr{Fn: fn, Args: args} }
	col := &VarExpr{V: 7}
	colPath := runtime.PathEval{Col: 0}
	num := func(n float64) Expr { return &ConstExpr{Seq: item.Single(item.Number(n))} }
	for name, c := range map[string]struct {
		e    Expr
		want func(runtime.Evaluator) bool
	}{
		"dateTime(data(path))": {call("dateTime", call("data", path)), func(ev runtime.Evaluator) bool {
			d, ok := ev.(runtime.DateTimeEval)
			return ok && reflect.DeepEqual(d.Arg, runtime.PathEval{Col: 1, Keys: []string{"a", "b"}}) && d.Call.Fn.Name == "dateTime"
		}},
		"dateTime(column)": {call("dateTime", col), func(ev runtime.Evaluator) bool {
			d, ok := ev.(runtime.DateTimeEval)
			return ok && reflect.DeepEqual(d.Arg, colPath)
		}},
		"year(column)": {call("year-from-dateTime", col), func(ev runtime.Evaluator) bool {
			d, ok := ev.(runtime.DatePartEval)
			return ok && reflect.DeepEqual(d.Arg, colPath)
		}},
		"day(dateTime(data(column)))": {call("day-from-dateTime", call("dateTime", call("data", col))), func(ev runtime.Evaluator) bool {
			d, ok := ev.(runtime.DatePartEval)
			_, inner := d.Arg.(runtime.DateTimeEval)
			return ok && inner
		}},
		"ge(year(column), 2003)": {call("ge", call("year-from-dateTime", col), num(2003)), func(ev runtime.Evaluator) bool {
			c, ok := ev.(runtime.CompareEval)
			_, part := c.Arg.(runtime.DatePartEval)
			return ok && part
		}},
		"eq(column, 12)": {call("eq", col, num(12)), func(ev runtime.Evaluator) bool {
			c, ok := ev.(runtime.CompareEval)
			return ok && reflect.DeepEqual(c.Arg, colPath)
		}},
	} {
		ev, err := exprEval(c.e, schema)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !c.want(ev) {
			t.Errorf("%s compiled to %#v", name, ev)
		}
	}
	for name, e := range map[string]Expr{
		"data(path)":                        call("data", path),
		"dateTime(data(call))":              call("dateTime", call("data", call("keys-or-members", col))),
		"dateTime of two":                   call("dateTime", col, col),
		"count(column)":                     call("count", col),
		"not of two":                        call("not", col, col),
		"and(not(column), boolean(column))": call("and", call("not", col), call("boolean", col)),
		"year(sub(column, 1))":              call("year-from-dateTime", call("sub", col, num(1))),
		"eq(data(column), 1)":               call("eq", call("data", col), num(1)),
		"numeric key":                       value(&VarExpr{V: 7}, &ConstExpr{Seq: item.Single(item.Number(1))}),
		"computed key":                      value(&VarExpr{V: 7}, &VarExpr{V: 9}),
		"path over a call":                  value(&CallExpr{Fn: "keys-or-members", Args: []Expr{&VarExpr{V: 7}}}, str("a")),
		"eq of two paths":                   &CallExpr{Fn: "eq", Args: []Expr{path, path}},
		"eq with null":                      &CallExpr{Fn: "eq", Args: []Expr{path, &ConstExpr{Seq: item.Single(item.Null{})}}},
		"constant first":                    &CallExpr{Fn: "eq", Args: []Expr{str("TMIN"), path}},
		"not a comparison":                  &CallExpr{Fn: "sub", Args: []Expr{path, &ConstExpr{Seq: item.Single(item.Number(1))}}},
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
