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

// tupleViews returns the two views of one tuple: framed (raw encoded fields
// in a LazyTuple) and decoded (a SeqTuple).
func tupleViews(fields []item.Sequence) []Tuple {
	raw := make([][]byte, len(fields))
	for i, f := range fields {
		raw[i] = item.EncodeSeq(nil, f)
	}
	var lt frame.LazyTuple
	lt.Reset(raw)
	return []Tuple{&lt, SeqTuple(fields)}
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
			if enc, ok, err := p.AppendEncoded([]byte{0xEE}, tup); err != nil || (ok && !bytes.Equal(enc, item.EncodeSeq([]byte{0xEE}, want))) {
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
// comparison and the path count read the encoded bytes and allocate nothing.
func TestEncodedEvaluatorsAllocateNothing(t *testing.T) {
	rec := item.ObjectFromPairs("date", item.String("2013-12-25T00:00"), "dataType", item.String("TMIN"),
		"station", item.String("GHCND:X"), "value", item.Number(12))
	var lt frame.LazyTuple
	lt.Reset([][]byte{item.EncodeSeq(nil, item.Single(rec))})
	ce, _ := NewCompareEval(FnEq, PathEval{Keys: []string{"dataType"}}, item.Single(item.String("TMIN")))
	count := PathEval{Keys: []string{"station"}}
	ctx := NewCtx(nil)
	allocs := testing.AllocsPerRun(100, func() {
		v, err := ce.Eval(ctx, &lt)
		if err != nil || !item.EffectiveBoolean(v) {
			t.Fatalf("eq = %v, %v", v, err)
		}
		if n, ok, err := count.CountEncoded(&lt); err != nil || !ok || n != 1 {
			t.Fatalf("count = %d, %v, %v", n, ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("encoded compare + count allocate %.1f times, want 0", allocs)
	}
}
