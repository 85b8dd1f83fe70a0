package algebricks

import (
	"strings"
	"testing"

	"vxq/internal/hyracks"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

func bookSource() *runtime.MemSource {
	return &runtime.MemSource{Collections: map[string]map[string][]byte{
		"/books": {
			"a.json": []byte(`{"bookstore":{"book":[
				{"title":"Everyday Italian","author":"Giada","price":30},
				{"title":"XQuery Kick Start","author":"Kurt","price":50}]}}`),
			"b.json": []byte(`{"bookstore":{"book":[
				{"title":"Learning XML","author":"Kurt","price":40}]}}`),
		},
	}}
}

// unoptimizedBookstorePlan builds the Fig. 5 plan for
// collection("/books")("bookstore")("book")().
func unoptimizedBookstorePlan() *Plan {
	vars := &VarAllocator{}
	vColl := vars.New()
	vFile := vars.New()
	vBooks := vars.New()
	vSeq := vars.New()
	vX := vars.New()

	var root Op = &EmptyTupleSource{}
	root = &Assign{V: vColl, E: Call("collection", Call("promote", Call("data", Str("/books")))), In: root}
	root = &Unnest{V: vFile, E: Call("iterate", VarRef(vColl)), In: root}
	root = &Assign{V: vBooks, E: Call("value",
		Call("value", VarRef(vFile), Str("bookstore")),
		Str("book")), In: root}
	root = &Assign{V: vSeq, E: Call("keys-or-members", VarRef(vBooks)), In: root}
	root = &Unnest{V: vX, E: Call("iterate", VarRef(vSeq)), In: root}
	root = &DistributeResult{Vs: []Var{vX}, In: root}
	return NewPlan(root, vars)
}

func runPlan(t *testing.T, p *Plan, opts CompileOptions, src runtime.Source) *hyracks.Result {
	t.Helper()
	job, err := Compile(p, opts)
	if err != nil {
		t.Fatalf("Compile: %v\nplan:\n%s", err, p)
	}
	res, err := hyracks.RunStaged(job, &hyracks.Env{Source: src})
	if err != nil {
		t.Fatalf("RunStaged: %v\njob:\n%s", err, job)
	}
	res.SortRows()
	return res
}

func TestCompileAndRunUnoptimizedBookstore(t *testing.T) {
	res := runPlan(t, unoptimizedBookstorePlan(), CompileOptions{}, bookSource())
	if len(res.Rows) != 3 {
		t.Fatalf("books = %d, want 3", len(res.Rows))
	}
	first, _ := res.Rows[0][0].One()
	if first.Kind() != item.KindObject {
		t.Errorf("book kind = %v", first.Kind())
	}
}

func TestPlanString(t *testing.T) {
	s := unoptimizedBookstorePlan().String()
	for _, want := range []string{"DISTRIBUTE-RESULT", "UNNEST", "ASSIGN", "EMPTY-TUPLE-SOURCE",
		"keys-or-members", "collection", "promote(data("} {
		if !strings.Contains(s, want) {
			t.Errorf("plan missing %q:\n%s", want, s)
		}
	}
}

func TestSchema(t *testing.T) {
	p := unoptimizedBookstorePlan()
	dr := p.Root.(*DistributeResult)
	schema := Schema(dr.In, nil)
	if len(schema) != 5 {
		t.Fatalf("schema = %v", schema)
	}
	// The last variable is the unnested book.
	if schema[len(schema)-1] != dr.Vs[0] {
		t.Errorf("last schema var %v != result var %v", schema[len(schema)-1], dr.Vs[0])
	}
}

func TestRemoveUnusedAssign(t *testing.T) {
	vars := &VarAllocator{}
	vDead := vars.New()
	vX := vars.New()
	var root Op = &EmptyTupleSource{}
	root = &Assign{V: vDead, E: Num(42), In: root}
	root = &Assign{V: vX, E: Num(7), In: root}
	root = &DistributeResult{Vs: []Var{vX}, In: root}
	p := NewPlan(root, vars)
	if err := p.Rewrite([]Rule{RemoveUnusedAssign{}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p.String(), "42") {
		t.Errorf("dead assign not removed:\n%s", p)
	}
	if !strings.Contains(p.String(), "7") {
		t.Errorf("live assign removed:\n%s", p)
	}
}

func TestRemoveUnusedAssignKeepsUsedInNested(t *testing.T) {
	vars := &VarAllocator{}
	vA := vars.New()
	vAgg := vars.New()
	var root Op = &EmptyTupleSource{}
	root = &Assign{V: vA, E: Num(1), In: root}
	root = &Subplan{
		Nested: &Aggregate{
			Aggs: []AggExpr{{V: vAgg, Fn: "count", Arg: VarRef(vA)}},
			In:   &NestedTupleSource{},
		},
		In: root,
	}
	root = &DistributeResult{Vs: []Var{vAgg}, In: root}
	p := NewPlan(root, vars)
	if err := p.Rewrite([]Rule{RemoveUnusedAssign{}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "ASSIGN") {
		t.Errorf("assign used in nested plan must be kept:\n%s", p)
	}
}

func TestConjunctsAndOf(t *testing.T) {
	e := Call("and", Call("and", Str("a"), Str("b")), Str("c"))
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("conjuncts = %d", len(cs))
	}
	if AndOf(nil).String() != "true" {
		t.Errorf("AndOf(nil) = %s", AndOf(nil))
	}
	if AndOf(cs[:1]).String() != `"a"` {
		t.Errorf("AndOf(1) = %s", AndOf(cs[:1]))
	}
	if !strings.HasPrefix(AndOf(cs).String(), "and(") {
		t.Errorf("AndOf(3) = %s", AndOf(cs))
	}
}

func TestSubstAndUses(t *testing.T) {
	vars := &VarAllocator{}
	a, b := vars.New(), vars.New()
	e := Call("eq", Call("value", VarRef(a), Str("k")), VarRef(b))
	if !UsesVar(e, a) || !UsesVar(e, b) {
		t.Error("UsesVar")
	}
	if UsesOnly(e, []Var{a}) {
		t.Error("UsesOnly should fail with b missing")
	}
	if !UsesOnly(e, []Var{a, b}) {
		t.Error("UsesOnly should pass")
	}
	sub := MapExpr(e, ReplaceVar(b, Num(3)))
	if UsesVar(sub, b) {
		t.Errorf("ReplaceVar left %v in %s", b, sub)
	}
	if !UsesVar(sub, a) {
		t.Error("ReplaceVar removed unrelated var")
	}
	// Original unchanged (MapExpr builds new calls).
	if !UsesVar(e, b) {
		t.Error("MapExpr must not mutate the original")
	}
}

// joinPlan builds: scan books as L, scan books as R, cross join, select
// L.author eq R.author and L.price lt R.price, return [L.title, R.title].
func joinPlan(vars *VarAllocator) (*Plan, Var, Var) {
	path := jsonparse.Path{
		jsonparse.KeyStep("bookstore"), jsonparse.KeyStep("book"), jsonparse.MembersStep(),
	}
	vL := vars.New()
	vR := vars.New()
	vLT := vars.New()
	vRT := vars.New()
	left := Op(&DataScan{Collection: "/books", Project: path, V: vL, In: &EmptyTupleSource{}})
	right := Op(&DataScan{Collection: "/books", Project: path, V: vR, In: &EmptyTupleSource{}})
	join := &Join{Cond: True(), Left: left, Right: right}
	cond := Call("and",
		Call("eq", Call("value", VarRef(vL), Str("author")), Call("value", VarRef(vR), Str("author"))),
		Call("lt", Call("value", VarRef(vL), Str("price")), Call("value", VarRef(vR), Str("price"))),
	)
	var root Op = &Select{Cond: cond, In: join}
	root = &Assign{V: vLT, E: Call("value", VarRef(vL), Str("title")), In: root}
	root = &Assign{V: vRT, E: Call("value", VarRef(vR), Str("title")), In: root}
	root = &DistributeResult{Vs: []Var{vLT, vRT}, In: root}
	return NewPlan(root, vars), vL, vR
}

func TestExtractJoinCondition(t *testing.T) {
	p, _, _ := joinPlan(&VarAllocator{})
	if err := p.Rewrite([]Rule{ExtractJoinCondition{}}); err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if !strings.Contains(s, "HASH-JOIN") {
		t.Fatalf("join not converted:\n%s", s)
	}
	// The non-equi conjunct must remain as residual.
	if !strings.Contains(s, "residual lt(") {
		t.Errorf("residual missing:\n%s", s)
	}
}

func TestJoinExecution(t *testing.T) {
	for _, parts := range []int{1, 2} {
		p, _, _ := joinPlan(&VarAllocator{})
		if err := p.Rewrite([]Rule{ExtractJoinCondition{}}); err != nil {
			t.Fatal(err)
		}
		res := runPlan(t, p, CompileOptions{Partitions: parts}, bookSource())
		// Kurt wrote "XQuery Kick Start" (50) and "Learning XML" (40):
		// exactly one pair with L.price < R.price.
		if len(res.Rows) != 1 {
			t.Fatalf("parts=%d rows = %d, want 1\nplan:\n%s", parts, len(res.Rows), p)
		}
		lt, _ := res.Rows[0][0].One()
		rt, _ := res.Rows[0][1].One()
		if string(lt.(item.String)) != "Learning XML" || string(rt.(item.String)) != "XQuery Kick Start" {
			t.Errorf("pair = %s, %s", item.JSON(lt), item.JSON(rt))
		}
	}
}

func TestCrossJoinWithoutExtraction(t *testing.T) {
	// Without the extraction rule the select stays above a cross product;
	// results must be identical.
	p, _, _ := joinPlan(&VarAllocator{})
	res := runPlan(t, p, CompileOptions{Partitions: 2}, bookSource())
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestPushSelectBelowAssign(t *testing.T) {
	vars := &VarAllocator{}
	path := jsonparse.Path{
		jsonparse.KeyStep("bookstore"), jsonparse.KeyStep("book"), jsonparse.MembersStep(),
	}
	vX := vars.New()
	vT := vars.New()
	var root Op = &DataScan{Collection: "/books", Project: path, V: vX, In: &EmptyTupleSource{}}
	root = &Assign{V: vT, E: Call("value", VarRef(vX), Str("title")), In: root}
	root = &Select{Cond: Call("eq", Call("value", VarRef(vX), Str("author")), Str("Kurt")), In: root}
	root = &DistributeResult{Vs: []Var{vT}, In: root}
	p := NewPlan(root, vars)
	if err := p.Rewrite([]Rule{PushSelectBelowAssign{}}); err != nil {
		t.Fatal(err)
	}
	// After the rewrite the ASSIGN must be above the SELECT.
	s := p.String()
	ai := strings.Index(s, "ASSIGN")
	si := strings.Index(s, "SELECT")
	if ai == -1 || si == -1 || ai > si {
		t.Errorf("select not pushed below assign:\n%s", s)
	}
	res := runPlan(t, p, CompileOptions{}, bookSource())
	if len(res.Rows) != 2 {
		t.Errorf("Kurt's books = %d, want 2", len(res.Rows))
	}
}

// groupByPlan builds: scan books -> group by author -> count(titles).
func groupByPlan(vars *VarAllocator, fn string) *Plan {
	path := jsonparse.Path{
		jsonparse.KeyStep("bookstore"), jsonparse.KeyStep("book"), jsonparse.MembersStep(),
	}
	vX := vars.New()
	vAuthor := vars.New()
	vCount := vars.New()
	var root Op = &DataScan{Collection: "/books", Project: path, V: vX, In: &EmptyTupleSource{}}
	root = &GroupBy{
		Keys: []KeyExpr{{V: vAuthor, E: Call("value", VarRef(vX), Str("author"))}},
		Aggs: []AggExpr{{V: vCount, Fn: fn, Arg: Call("value", VarRef(vX), Str("title"))}},
		In:   root,
	}
	root = &DistributeResult{Vs: []Var{vAuthor, vCount}, In: root}
	return NewPlan(root, vars)
}

func TestGroupByCompilationModes(t *testing.T) {
	check := func(name string, res *hyracks.Result) {
		t.Helper()
		if len(res.Rows) != 2 {
			t.Fatalf("%s: groups = %d, want 2", name, len(res.Rows))
		}
		counts := map[string]float64{}
		for _, row := range res.Rows {
			a, _ := row[0].One()
			c, _ := row[1].One()
			counts[string(a.(item.String))] = float64(c.(item.Number))
		}
		if counts["Kurt"] != 2 || counts["Giada"] != 1 {
			t.Errorf("%s: counts = %v", name, counts)
		}
	}
	check("1-partition", runPlan(t, groupByPlan(&VarAllocator{}, "count"),
		CompileOptions{Partitions: 1}, bookSource()))
	check("2-partition single-step", runPlan(t, groupByPlan(&VarAllocator{}, "count"),
		CompileOptions{Partitions: 2}, bookSource()))
	check("2-partition two-step", runPlan(t, groupByPlan(&VarAllocator{}, "count"),
		CompileOptions{Partitions: 2, TwoStepAggregation: true}, bookSource()))
}

func TestGroupBySequenceAggNotSplittable(t *testing.T) {
	// sequence aggregation cannot run two-step; the compiler must fall back
	// to single-step and still be correct.
	p := groupByPlan(&VarAllocator{}, "sequence")
	res := runPlan(t, p, CompileOptions{Partitions: 2, TwoStepAggregation: true}, bookSource())
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row[1]) == 0 {
			t.Error("sequence aggregate is empty")
		}
	}
}

func TestAggregateTwoStepAvg(t *testing.T) {
	vars := &VarAllocator{}
	path := jsonparse.Path{
		jsonparse.KeyStep("bookstore"), jsonparse.KeyStep("book"), jsonparse.MembersStep(),
	}
	vX := vars.New()
	vP := vars.New()
	vAvg := vars.New()
	build := func() *Plan {
		var root Op = &DataScan{Collection: "/books", Project: path, V: vX, In: &EmptyTupleSource{}}
		root = &Assign{V: vP, E: Call("value", VarRef(vX), Str("price")), In: root}
		root = &Aggregate{Aggs: []AggExpr{{V: vAvg, Fn: "avg", Arg: VarRef(vP)}}, In: root}
		root = &DistributeResult{Vs: []Var{vAvg}, In: root}
		return NewPlan(root, vars)
	}
	for _, opts := range []CompileOptions{
		{Partitions: 1},
		{Partitions: 2},
		{Partitions: 2, TwoStepAggregation: true},
		{Partitions: 3, TwoStepAggregation: true},
	} {
		res := runPlan(t, build(), opts, bookSource())
		if len(res.Rows) != 1 {
			t.Fatalf("opts %+v: rows = %d", opts, len(res.Rows))
		}
		if !item.EqualSeq(res.Rows[0][0], item.Single(item.Number(40))) {
			t.Errorf("opts %+v: avg = %s, want 40", opts, item.JSONSeq(res.Rows[0][0]))
		}
	}
}

func TestCompileErrors(t *testing.T) {
	vars := &VarAllocator{}
	v := vars.New()
	// Root not DistributeResult.
	if _, err := Compile(NewPlan(&EmptyTupleSource{}, vars), CompileOptions{}); err == nil {
		t.Error("non-DISTRIBUTE-RESULT root must fail")
	}
	// Unknown variable reference.
	bad := &DistributeResult{Vs: []Var{v + 99}, In: &Assign{V: v, E: Num(1), In: &EmptyTupleSource{}}}
	if _, err := Compile(NewPlan(bad, vars), CompileOptions{}); err == nil {
		t.Error("unknown result var must fail")
	}
	// Unknown function.
	badFn := &DistributeResult{Vs: []Var{v},
		In: &Assign{V: v, E: Call("no-such-function"), In: &EmptyTupleSource{}}}
	if _, err := Compile(NewPlan(badFn, vars), CompileOptions{}); err == nil {
		t.Error("unknown function must fail")
	}
	// DataScan not over ETS.
	badScan := &DistributeResult{Vs: []Var{v}, In: &DataScan{
		Collection: "/books", V: v,
		In: &Assign{V: v + 1, E: Num(1), In: &EmptyTupleSource{}},
	}}
	if _, err := Compile(NewPlan(badScan, vars), CompileOptions{}); err == nil {
		t.Error("DATASCAN over non-ETS must fail")
	}
	// NTS outside nested plan.
	badNTS := &DistributeResult{Vs: []Var{}, In: &NestedTupleSource{}}
	if _, err := Compile(NewPlan(badNTS, vars), CompileOptions{}); err == nil {
		t.Error("NTS at top level must fail")
	}
}

func TestVarAllocator(t *testing.T) {
	a := &VarAllocator{}
	v1, v2 := a.New(), a.New()
	if v1 == v2 {
		t.Error("allocator returned duplicate vars")
	}
	if v1.String() != "$v0" {
		t.Errorf("v1 = %s", v1)
	}
}

func TestSubplanCompileAndPrune(t *testing.T) {
	// A subplan whose nested chain has an assign and a select, over a
	// grouped sequence — exercises compileNested and nested pruning.
	vars := &VarAllocator{}
	path := jsonparse.Path{
		jsonparse.KeyStep("bookstore"), jsonparse.KeyStep("book"), jsonparse.MembersStep(),
	}
	vX := vars.New()
	vAuthor := vars.New()
	vSeq := vars.New()
	vJ := vars.New()
	vTitle := vars.New()
	vCount := vars.New()
	var root Op = &DataScan{Collection: "/books", Project: path, V: vX, In: &EmptyTupleSource{}}
	root = &GroupBy{
		Keys: []KeyExpr{{V: vAuthor, E: Call("value", VarRef(vX), Str("author"))}},
		Aggs: []AggExpr{{V: vSeq, Fn: "sequence", Arg: VarRef(vX)}},
		In:   root,
	}
	nested := &Aggregate{
		Aggs: []AggExpr{{V: vCount, Fn: "count", Arg: VarRef(vTitle)}},
		In: &Select{
			Cond: Call("eq", Call("value", VarRef(vJ), Str("author")), Str("Kurt")),
			In: &Assign{
				V: vTitle, E: Call("value", VarRef(vJ), Str("title")),
				In: &Unnest{V: vJ, E: Call("iterate", VarRef(vSeq)), In: &NestedTupleSource{}},
			},
		},
	}
	root = &Subplan{Nested: nested, In: root}
	root = &DistributeResult{Vs: []Var{vAuthor, vCount}, In: root}
	p := NewPlan(root, vars)
	res := runPlan(t, p, CompileOptions{}, bookSource())
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2\nplan:\n%s", len(res.Rows), p)
	}
	counts := map[string]float64{}
	for _, row := range res.Rows {
		a, _ := row[0].One()
		c, _ := row[1].One()
		counts[string(a.(item.String))] = float64(c.(item.Number))
	}
	// Only Kurt's titles are counted inside the subplan.
	if counts["Kurt"] != 2 || counts["Giada"] != 0 {
		t.Errorf("counts = %v", counts)
	}
}

func TestCompileNestedErrors(t *testing.T) {
	vars := &VarAllocator{}
	v := vars.New()
	// Nested plan root not an Aggregate.
	badRoot := &DistributeResult{Vs: []Var{v}, In: &Subplan{
		Nested: &NestedTupleSource{},
		In:     &Assign{V: v, E: Num(1), In: &EmptyTupleSource{}},
	}}
	if _, err := Compile(NewPlan(badRoot, vars), CompileOptions{}); err == nil {
		t.Error("nested non-aggregate root must fail")
	}
	// A nested plan is lowered through the ordinary compiler, but must run
	// on the outer tuple alone: a leaf other than NESTED-TUPLE-SOURCE, or an
	// operator that closes an exchange (a join), is rejected.
	nestedOver := func(in Op) *Plan {
		vars := &VarAllocator{}
		v, a := vars.New(), vars.New()
		return NewPlan(&DistributeResult{Vs: []Var{a}, In: &Subplan{
			Nested: &Aggregate{Aggs: []AggExpr{{V: a, Fn: "count", Arg: Num(1)}}, In: in},
			In:     &Assign{V: v, E: Num(1), In: &EmptyTupleSource{}},
		}}, vars)
	}
	for name, in := range map[string]Op{
		"empty-tuple-source leaf": &EmptyTupleSource{},
		"join": &Join{Cond: True(), LeftKeys: []Expr{Num(1)}, RightKeys: []Expr{Num(1)},
			Left: &NestedTupleSource{}, Right: &NestedTupleSource{}},
	} {
		_, err := Compile(nestedOver(in), CompileOptions{})
		if err == nil || !strings.Contains(err.Error(), "outer tuple alone") {
			t.Errorf("%s inside a nested plan: err = %v, want the outer-tuple error", name, err)
		}
	}
}

func TestExprClone(t *testing.T) {
	e := Call("value", VarRef(3), Str("k"))
	c := e.Clone().(*CallExpr)
	c.Args[1] = Num(9)
	if e.Args[1].String() != `"k"` {
		t.Error("Clone must not share argument slices")
	}
	v := VarRef(5)
	if v.Clone().String() != "$v5" {
		t.Error("VarExpr clone")
	}
	k := Str("x")
	if k.Clone().String() != `"x"` {
		t.Error("ConstExpr clone")
	}
}

func TestOpLabelsAndSlots(t *testing.T) {
	vars := &VarAllocator{}
	v := vars.New()
	sp := &Subplan{Nested: &NestedTupleSource{}, In: &EmptyTupleSource{}}
	if sp.Label() != "SUBPLAN" || len(sp.InputSlots()) != 1 {
		t.Error("subplan label/slots")
	}
	srt := &Sort{Keys: []SortKey{{E: VarRef(v), Desc: true}}, In: &EmptyTupleSource{}}
	if !strings.Contains(srt.Label(), "desc") || len(srt.InputSlots()) != 1 {
		t.Errorf("sort label = %s", srt.Label())
	}
	pr := &Project{Vs: []Var{v}, In: &EmptyTupleSource{}}
	if !strings.Contains(pr.Label(), "$v0") || len(pr.InputSlots()) != 1 {
		t.Errorf("project label = %s", pr.Label())
	}
	scan := &DataScan{Collection: "/c", V: v, In: &EmptyTupleSource{}}
	if !strings.Contains(scan.Label(), "/c") {
		t.Errorf("scan label = %s", scan.Label())
	}
	for _, r := range []Rule{RemoveUnusedAssign{}, ExtractJoinCondition{}, PushSelectBelowAssign{}} {
		if r.Name() == "" {
			t.Error("rule names must be non-empty")
		}
	}
}

func TestSchemaAllOperators(t *testing.T) {
	vars := &VarAllocator{}
	v1, v2, v3 := vars.New(), vars.New(), vars.New()
	base := Op(&Assign{V: v1, E: Num(1), In: &EmptyTupleSource{}})
	cases := []struct {
		op   Op
		want int
	}{
		{&Select{Cond: True(), In: base}, 1},
		{&Sort{Keys: []SortKey{{E: VarRef(v1)}}, In: base}, 1},
		{&Unnest{V: v2, E: Call("iterate", VarRef(v1)), In: base}, 2},
		{&Project{Vs: []Var{v1}, In: base}, 1},
		{&Aggregate{Aggs: []AggExpr{{V: v3, Fn: "count", Arg: VarRef(v1)}}, In: base}, 1},
		{&GroupBy{Keys: []KeyExpr{{V: v2, E: VarRef(v1)}},
			Aggs: []AggExpr{{V: v3, Fn: "sequence", Arg: VarRef(v1)}}, In: base}, 2},
		{&Join{Cond: True(), Left: base, Right: &Assign{V: v2, E: Num(2), In: &EmptyTupleSource{}}}, 2},
		{&Subplan{Nested: &Aggregate{Aggs: []AggExpr{{V: v3, Fn: "count", Arg: VarRef(v1)}},
			In: &NestedTupleSource{}}, In: base}, 2},
	}
	for i, c := range cases {
		if got := len(Schema(c.op, nil)); got != c.want {
			t.Errorf("case %d (%T): schema size = %d, want %d", i, c.op, got, c.want)
		}
	}
}
