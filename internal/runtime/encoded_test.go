package runtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"vxq/internal/frame"
	"vxq/internal/item"
)

// The encoded evaluators must return exactly what the CallEval trees they
// replace return — results, nil-ness and error texts — over framed tuples
// (raw encoded fields) and decoded ones alike. These differential tests run
// both over random encoded sequences with missing keys, arrays, nested
// objects, multi-item sequences and kind mismatches.

var diffKeys = []string{"a", "b", "c"}

func randScalar(r *rand.Rand) item.Item {
	switch r.Intn(6) {
	case 0:
		return item.Null{}
	case 1:
		return item.Bool(r.Intn(2) == 0)
	case 2:
		return item.Number(float64(r.Intn(7) - 3))
	case 3:
		return item.String([]string{"", "TMIN", "TMAX", "x"}[r.Intn(4)])
	default:
		return item.DateTime{Year: 2000 + r.Intn(3), Month: 1 + r.Intn(2), Day: 1}
	}
}

func randDiffItem(r *rand.Rand, depth int) item.Item {
	if depth == 0 || r.Intn(3) == 0 {
		return randScalar(r)
	}
	if r.Intn(4) == 0 {
		arr := make(item.Array, r.Intn(3))
		for i := range arr {
			arr[i] = randDiffItem(r, depth-1)
		}
		return arr
	}
	var keys []string
	var vals []item.Item
	for _, k := range diffKeys {
		if r.Intn(3) > 0 {
			keys = append(keys, k)
			vals = append(vals, randDiffItem(r, depth-1))
		}
	}
	return item.MustObject(keys, vals)
}

func randDiffSeq(r *rand.Rand) item.Sequence {
	n := []int{0, 1, 1, 1, 1, 2, 3}[r.Intn(7)]
	if n == 0 {
		return nil
	}
	s := make(item.Sequence, n)
	for i := range s {
		s[i] = randDiffItem(r, 3)
	}
	return s
}

// randPath returns a random path evaluator and the CallEval tree it
// replaces. Column 2 is out of range of the two-field tuples.
func randPath(r *rand.Rand) (PathEval, Evaluator) {
	p := PathEval{Col: r.Intn(3)}
	var ref Evaluator = ColumnEval{Col: p.Col}
	for i := 1 + r.Intn(3); i > 0; i-- {
		k := diffKeys[r.Intn(len(diffKeys))]
		p.Keys = append(p.Keys, k)
		ref = CallEval{Fn: FnValue, Args: []Evaluator{ref, ConstEval{Seq: item.Single(item.String(k))}}}
	}
	return p, ref
}

// tupleViews returns three views of one tuple: framed (raw encoded fields
// in a LazyTuple), appended raw (the same encodings added with AppendRaw, as
// an ASSIGN adds its computed fields) and decoded (a SeqTuple).
func tupleViews(fields []item.Sequence) []Tuple {
	raw := make([][]byte, len(fields))
	for i, f := range fields {
		raw[i] = item.EncodeSeq(nil, f)
	}
	var framed, appended frame.LazyTuple
	framed.Reset(raw)
	appended.Reset(nil)
	for _, b := range raw {
		appended.AppendRaw(b, nil)
	}
	return []Tuple{&framed, &appended, SeqTuple(fields)}
}

func sameResult(got, want item.Sequence, gerr, werr error) error {
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Errorf("error %v, CallEval's %v", gerr, werr)
	}
	if (got == nil) != (want == nil) || !item.EqualSeq(got, want) {
		return fmt.Errorf("result %s (nil %v), CallEval's %s (nil %v)",
			item.JSONSeq(got), got == nil, item.JSONSeq(want), want == nil)
	}
	return nil
}

func TestPathEvalMatchesCallEval(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ctx := NewCtx(nil)
	for i := 0; i < 20000; i++ {
		fields := []item.Sequence{randDiffSeq(r), randDiffSeq(r)}
		p, ref := randPath(r)
		for _, tup := range tupleViews(fields) {
			want, werr := ref.Eval(ctx, tup)
			got, gerr := p.Eval(ctx, tup)
			if err := sameResult(got, want, gerr, werr); err != nil {
				t.Fatalf("%T %s over %v: %v", tup, item.JSONSeq(fields[min(p.Col, 1)]), p, err)
			}
			if werr != nil {
				continue
			}
			if n, ok, err := p.CountEncoded(tup); err != nil || (ok && n != int64(len(want))) {
				t.Fatalf("%T CountEncoded = %d, %v, %v; want %d", tup, n, ok, err, len(want))
			}
			if enc, ok, err := p.AppendEncoded([]byte{0xEE}, ctx, tup); err != nil || (ok && !bytes.Equal(enc, item.EncodeSeq([]byte{0xEE}, want))) {
				t.Fatalf("%T AppendEncoded = %x, %v, %v; want %x", tup, enc, ok, err, item.EncodeSeq([]byte{0xEE}, want))
			}
		}
	}
}

func TestCompareEvalMatchesCallEval(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ctx := NewCtx(nil)
	names := []string{"eq", "ne", "lt", "le", "gt", "ge"}
	compiled := 0
	for i := 0; i < 20000; i++ {
		fields := []item.Sequence{randDiffSeq(r), randDiffSeq(r)}
		p, refPath := randPath(r)
		fn := MustFunction(names[r.Intn(len(names))])
		c := item.Single(randScalar(r))
		ce, ok := NewCompareEval(fn, p, c)
		if !ok {
			if c[0].Kind() != item.KindNull {
				t.Fatalf("NewCompareEval refused %s against %s", fn.Name, item.JSONSeq(c))
			}
			continue
		}
		compiled++
		ref := CallEval{Fn: fn, Args: []Evaluator{refPath, ConstEval{Seq: c}}}
		for _, tup := range tupleViews(fields) {
			want, werr := ref.Eval(ctx, tup)
			got, gerr := ce.Eval(ctx, tup)
			if err := sameResult(got, want, gerr, werr); err != nil {
				t.Fatalf("%T %s(%v, %s) over %s: %v", tup, fn.Name, p, item.JSONSeq(c), item.JSONSeq(fields[min(p.Col, 1)]), err)
			}
		}
	}
	if compiled == 0 {
		t.Fatal("no comparison compiled")
	}
	// Only single comparable scalars compile.
	for _, c := range []item.Sequence{nil, {item.Null{}}, {item.Number(1), item.Number(2)}, {item.Array{}}} {
		if _, ok := NewCompareEval(FnEq, PathEval{Keys: []string{"a"}}, c); ok {
			t.Errorf("NewCompareEval accepted constant %s", item.JSONSeq(c))
		}
	}
	if _, ok := NewCompareEval(MustFunction("value"), PathEval{Keys: []string{"a"}}, item.Single(item.Number(1))); ok {
		t.Error("NewCompareEval accepted a non-comparison")
	}
}

// TestEncodedEvaluatorsAllocateNothing: over a framed record, the path
// comparison, the path count, the dateTime ASSIGN and the date-part
// predicates read the encoded bytes and allocate nothing.
func TestEncodedEvaluatorsAllocateNothing(t *testing.T) {
	rec := item.ObjectFromPairs("date", item.String("2013-12-25T00:00"), "dataType", item.String("TMIN"),
		"station", item.String("GHCND:X"), "value", item.Number(12))
	var lt frame.LazyTuple
	lt.Reset([][]byte{item.EncodeSeq(nil, item.Single(rec))})
	ce, _ := NewCompareEval(FnEq, PathEval{Keys: []string{"dataType"}}, item.Single(item.String("TMIN")))
	count := PathEval{Keys: []string{"station"}}
	// Q0: ASSIGN $d := dateTime(data(value($r, "date"))), then SELECT
	// and(and(ge(year($d), 2003), eq(month($d), 12)), eq(day($d), 25)) over
	// the appended field, and the same predicate with the dateTime inlined
	// (its result then goes through the scratch stack).
	date := PathEval{Keys: []string{"date"}}
	assign := DateTimeEval{Call: CallEval{Fn: FnDateTime, Args: []Evaluator{CallEval{Fn: FnData, Args: []Evaluator{date}}}}, Arg: date}
	where := func(d EncodedAppender) Evaluator {
		cmp := func(fn, part *Function, c float64) Evaluator {
			dp, _ := NewDatePartEval(CallEval{Fn: part, Args: []Evaluator{d}}, d)
			e, _ := NewCompareEval(fn, dp, item.Single(item.Number(c)))
			return e
		}
		and := func(a, b Evaluator) Evaluator { return CallEval{Fn: FnAnd, Args: []Evaluator{a, b}} }
		return and(and(cmp(FnGe, FnYearFromDateTime, 2003), cmp(FnEq, FnMonthFromDateTime, 12)), cmp(FnEq, FnDayFromDateTime, 25))
	}
	selectAppended, selectInlined := where(PathEval{Col: 1}), where(assign)
	var assignEv Evaluator = assign // as the ASSIGN holds it: boxed once
	ctx := NewCtx(nil)
	var enc []byte
	allocs := testing.AllocsPerRun(100, func() {
		v, err := ce.Eval(ctx, &lt)
		if err != nil || !item.EffectiveBoolean(v) {
			t.Fatalf("eq = %v, %v", v, err)
		}
		if n, ok, err := count.CountEncoded(&lt); err != nil || !ok || n != 1 {
			t.Fatalf("count = %d, %v, %v", n, ok, err)
		}
		lt.Reset(lt.Raw())
		if enc, _, err = AppendEval(enc[:0], assignEv, ctx, &lt); err != nil {
			t.Fatal(err)
		}
		lt.AppendRaw(enc, nil)
		if v, err := selectAppended.Eval(ctx, &lt); err != nil || !item.EffectiveBoolean(v) {
			t.Fatalf("date predicate on the appended field = %v, %v", v, err)
		}
		if v, err := selectInlined.Eval(ctx, &lt); err != nil || !item.EffectiveBoolean(v) {
			t.Fatalf("date predicate with the dateTime inlined = %v, %v", v, err)
		}
	})
	if allocs != 0 {
		t.Errorf("encoded compare, count, dateTime assign and date predicates allocate %.1f times, want 0", allocs)
	}
}

// dateStrings are the date operands of the date evaluator tests: valid
// dates of every accepted form and bad ones.
var dateStrings = []string{"2013-12-25T00:00", "2003-01-02", "2013-12-25T23:59:60", "2002-12-25T00:05:07",
	"", "x", "2013-13-01", "2013-12-25T24:00", "2013-12-25T00:05x", "+2013-12-25"}

func randDateItem(r *rand.Rand, depth int) item.Item {
	switch r.Intn(8) {
	case 0, 1, 2:
		return item.String(dateStrings[r.Intn(len(dateStrings))])
	case 3:
		return item.DateTime{Year: 2002 + r.Intn(3), Month: 1 + r.Intn(12), Day: 1 + r.Intn(31), Hour: r.Intn(24)}
	case 4:
		if depth > 0 {
			return item.MustObject([]string{"date"}, []item.Item{randDateItem(r, depth-1)})
		}
		return item.Null{}
	case 5:
		if depth > 0 {
			return item.Array{randDateItem(r, depth-1)}
		}
		return item.Number(3)
	default:
		return randScalar(r)
	}
}

// randDateSeq returns a random field: mostly one item, sometimes none or
// several.
func randDateSeq(r *rand.Rand) item.Sequence {
	n := []int{0, 1, 1, 1, 1, 1, 2, 3}[r.Intn(8)]
	if n == 0 {
		return nil
	}
	s := make(item.Sequence, n)
	for i := range s {
		s[i] = randDateItem(r, 1)
	}
	return s
}

// randDateOperand returns a random encoded operand and the CallEval tree it
// stands for: a path (a column, or its "date" member; column 2 is out of
// range of the two-field tuples), dateTime or dateTime(data()) of an
// operand, or a date part of one.
func randDateOperand(r *rand.Rand, depth int) (EncodedAppender, Evaluator) {
	col := r.Intn(3)
	var p EncodedAppender = PathEval{Col: col}
	var ref Evaluator = ColumnEval{Col: col}
	if r.Intn(2) == 0 {
		p = PathEval{Col: col, Keys: []string{"date"}}
		ref = CallEval{Fn: FnValue, Args: []Evaluator{ref, ConstEval{Seq: item.Single(item.String("date"))}}}
	}
	if depth == 0 || r.Intn(3) == 0 {
		return p, ref
	}
	inner, innerRef := randDateOperand(r, depth-1)
	if r.Intn(2) == 0 {
		if r.Intn(2) == 0 {
			innerRef = CallEval{Fn: FnData, Args: []Evaluator{innerRef}}
		}
		call := CallEval{Fn: FnDateTime, Args: []Evaluator{innerRef}}
		return DateTimeEval{Call: call, Arg: inner}, call
	}
	part := []*Function{FnYearFromDateTime, FnMonthFromDateTime, FnDayFromDateTime}[r.Intn(3)]
	call := CallEval{Fn: part, Args: []Evaluator{innerRef}}
	dp, ok := NewDatePartEval(CallEval{Fn: part, Args: []Evaluator{inner}}, inner)
	if !ok {
		panic("NewDatePartEval refused " + part.Name)
	}
	return dp, call
}

// checkAppender compares an encoded evaluator with the CallEval tree it
// replaces over one tuple: Eval, AppendEncoded (when it reports ok) and
// AppendEval must all give the reference's result, bytes and error (and the
// sequence AppendEval returns, when it evaluated, must be that result), and
// the scratch stack must be empty afterwards.
func checkAppender(ctx *Ctx, ev EncodedAppender, ref Evaluator, tup Tuple) error {
	want, werr := ref.Eval(ctx, tup)
	got, gerr := ev.Eval(ctx, tup)
	if err := sameResult(got, want, gerr, werr); err != nil {
		return fmt.Errorf("Eval: %v", err)
	}
	prefix := []byte{0xEE}
	wantEnc := item.EncodeSeq([]byte{0xEE}, want)
	if enc, ok, err := ev.AppendEncoded(prefix, ctx, tup); (err != nil && err.Error() != fmt.Sprint(werr)) || (ok && (werr != nil || !bytes.Equal(enc, wantEnc))) {
		return fmt.Errorf("AppendEncoded = %x, %v, %v; want %x, %v", enc, ok, err, wantEnc, werr)
	}
	enc, seq, err := AppendEval([]byte{0xEE}, ev, ctx, tup)
	if fmt.Sprint(err) != fmt.Sprint(werr) || (werr == nil && !bytes.Equal(enc, wantEnc)) {
		return fmt.Errorf("AppendEval = %x, %v; want %x, %v", enc, err, wantEnc, werr)
	}
	if seq != nil && !item.EqualSeq(seq, want) {
		return fmt.Errorf("AppendEval evaluated %s, want %s", item.JSONSeq(seq), item.JSONSeq(want))
	}
	if ctx != nil && ctx.encDepth != 0 {
		return fmt.Errorf("scratch stack left at depth %d", ctx.encDepth)
	}
	return nil
}

// TestDateEvalsMatchCallEval: dateTime, dateTime(data()) and the date parts
// on encoded bytes, nested in each other and compared with constants, give
// CallEval's results, encodings and error texts over framed, appended-raw
// and decoded tuples holding good and bad dates, non-strings, objects given
// to data(), and empty and multi-item sequences.
func TestDateEvalsMatchCallEval(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ctx := NewCtx(nil)
	consts := []item.Item{item.Number(2003), item.Number(12), item.Number(25),
		item.DateTime{Year: 2013, Month: 12, Day: 25}, item.String("2013-12-25T00:00")}
	names := []string{"eq", "ne", "lt", "le", "gt", "ge"}
	onBytes := 0
	for i := 0; i < 20000; i++ {
		fields := []item.Sequence{randDateSeq(r), randDateSeq(r)}
		ev, ref := randDateOperand(r, 2)
		fn := MustFunction(names[r.Intn(len(names))])
		c := item.Single(consts[r.Intn(len(consts))])
		ce, ok := NewCompareEval(fn, ev, c)
		if !ok {
			t.Fatalf("NewCompareEval refused %s against %s", fn.Name, item.JSONSeq(c))
		}
		cref := CallEval{Fn: fn, Args: []Evaluator{ref, ConstEval{Seq: c}}}
		for _, tup := range tupleViews(fields) {
			if err := checkAppender(ctx, ev, ref, tup); err != nil {
				t.Fatalf("%T %#v over %v: %v", tup, ev, fields, err)
			}
			if _, ok, _ := ev.AppendEncoded(nil, ctx, tup); ok {
				onBytes++
			}
			want, werr := cref.Eval(ctx, tup)
			got, gerr := ce.Eval(ctx, tup)
			if err := sameResult(got, want, gerr, werr); err != nil {
				t.Fatalf("%T %s(%#v, %s) over %v: %v", tup, fn.Name, ev, item.JSONSeq(c), fields, err)
			}
		}
	}
	if onBytes < 5000 {
		t.Fatalf("only %d evaluations ran on the encoded bytes", onBytes)
	}
	// Each nesting depth has its own scratch buffer: the day parts of several
	// dates, whose dateTimes sit one depth below them, are all read on bytes.
	dates := []item.Sequence{{item.String("2013-12-25T00:00"), item.String("2003-01-02"), item.String("2002-12-31T00:05:07")}}
	dt := DateTimeEval{Call: CallEval{Fn: FnDateTime, Args: []Evaluator{PathEval{}}}, Arg: PathEval{}}
	day, _ := NewDatePartEval(CallEval{Fn: FnDayFromDateTime, Args: []Evaluator{dt}}, dt)
	for _, tup := range tupleViews(dates)[:2] {
		it, depth, ok := ctx.operand(day, tup)
		var got []float64
		for ok {
			m, more, err := it.next()
			if err != nil || !more {
				break
			}
			c, _, _ := item.Decode(m)
			got = append(got, float64(c.(item.Number)))
		}
		ctx.release(depth)
		if !ok || fmt.Sprint(got) != "[25 2 31]" {
			t.Fatalf("%T: nested operand read %v (ok %v), want [25 2 31]", tup, got, ok)
		}
	}
	// A nil context reads paths in place and evaluates what would need
	// scratch through the CallEval.
	fields := []item.Sequence{{item.String("2013-12-25T00:00")}, {item.DateTime{Year: 2013, Month: 12, Day: 25}}}
	for i := 0; i < 200; i++ {
		ev, ref := randDateOperand(r, 2)
		for _, tup := range tupleViews(fields) {
			if err := checkAppender(nil, ev, ref, tup); err != nil {
				t.Fatalf("nil context, %T %#v: %v", tup, ev, err)
			}
		}
	}
}
