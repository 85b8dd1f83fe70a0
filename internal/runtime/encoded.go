package runtime

import "vxq/internal/item"

// Evaluation on encoded bytes. The hot expressions of the paper's queries
// read one member of a record and compare it with a constant; over a framed
// tuple both run on the field's encoding (Tuple.RawField) through an
// item.Cursor, so the record is never decoded. Each evaluator returns
// exactly what the CallEval it replaces returns, error texts included: a
// tuple without encoded bytes for the column (SeqTuple, an appended field)
// and every unusual operand (several items, a kind mismatch) take the
// decoded path.

// PathEval is value(…value($Col, Keys[0])…, Keys[n-1]) with constant string
// keys. Over an encoded field it walks to the selected members and decodes
// only those.
type PathEval struct {
	Col  int
	Keys []string
}

// pathIter yields, in order, the members a PathEval selects from the items
// of one encoded sequence.
type pathIter struct {
	cur  item.Cursor
	keys []string
}

func (it *pathIter) next() ([]byte, bool, error) {
	for {
		x, ok, err := it.cur.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		for _, k := range it.keys {
			if x, ok, err = item.Member(x, k); err != nil || !ok {
				break
			}
		}
		if err != nil || ok {
			return x, ok, err
		}
	}
}

// iter positions an iterator on the column's encoding; ok is false when the
// tuple holds no encoded bytes for it.
func (e PathEval) iter(tup Tuple) (it pathIter, ok bool, err error) {
	if e.Col < 0 || e.Col >= tup.FieldCount() {
		return it, false, columnRangeError(e.Col, tup)
	}
	raw, ok := tup.RawField(e.Col)
	if !ok {
		return it, false, nil
	}
	it.cur, err = item.NewCursor(raw)
	it.keys = e.Keys
	return it, err == nil, err
}

// Eval implements Evaluator.
func (e PathEval) Eval(_ *Ctx, tup Tuple) (item.Sequence, error) {
	it, ok, err := e.iter(tup)
	if err != nil {
		return nil, err
	}
	if !ok {
		return e.evalDecoded(tup)
	}
	var out item.Sequence
	for {
		m, more, err := it.next()
		if err != nil || !more {
			return out, err
		}
		v, _, err := item.Decode(m)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
}

// evalDecoded applies value() to the decoded field, for tuples without
// encoded bytes.
func (e PathEval) evalDecoded(tup Tuple) (item.Sequence, error) {
	seq, err := tup.Field(e.Col)
	for _, k := range e.Keys {
		if err != nil {
			break
		}
		seq, err = FnValue.Apply(nil, []item.Sequence{seq, item.Single(item.String(k))})
	}
	return seq, err
}

// AppendEncoded appends the encoding of Eval's result (item.EncodeSeq's
// layout) by copying the selected members' bytes: a count, then the
// members. ok is false when the tuple holds no encoded bytes for the column;
// the caller then encodes Eval's result.
func (e PathEval) AppendEncoded(dst []byte, tup Tuple) ([]byte, bool, error) {
	it, ok, err := e.iter(tup)
	if err != nil || !ok {
		return dst, false, err
	}
	at, n := len(dst), 0
	dst = append(dst, 0)
	for {
		m, more, err := it.next()
		if err != nil {
			return dst, false, err
		}
		if !more {
			return item.PatchCount(dst, at, n), true, nil
		}
		dst = append(dst, m...)
		n++
	}
}

// CountEncoded returns the number of items Eval would return without
// decoding any (ok is false when the tuple holds no encoded bytes).
func (e PathEval) CountEncoded(tup Tuple) (int64, bool, error) {
	it, ok, err := e.iter(tup)
	if err != nil || !ok {
		return 0, false, err
	}
	var n int64
	for {
		_, more, err := it.next()
		if err != nil || !more {
			return n, err == nil, err
		}
		n++
	}
}

// CountEncoded returns the number of items in the column's encoded
// sequence, reading only its count (ok is false when the tuple holds no
// encoded bytes for the column).
func (e ColumnEval) CountEncoded(tup Tuple) (int64, bool, error) {
	raw, ok := tup.RawField(e.Col)
	if !ok {
		return 0, false, nil
	}
	n, err := item.SeqCountEncoded(raw)
	return n, err == nil, err
}

// EncodedCounter is an evaluator that can count its result's items on the
// encoded bytes; count aggregates step on it instead of evaluating.
type EncodedCounter interface {
	Evaluator
	CountEncoded(tup Tuple) (n int64, ok bool, err error)
}

// Shared results of CompareEval: like ConstEval's, callers never modify
// them.
var (
	trueSeq  = item.Sequence{item.Bool(true)}
	falseSeq = item.Sequence{item.Bool(false)}
)

// CompareEval is a value comparison (eq, ne, lt, le, gt, ge) of a path with
// a number, string, boolean or dateTime constant. When the path selects one
// member of the constant's kind, the member is compared in place and the
// result is a shared true or false sequence; anything else (no encoded
// bytes, several members, a kind mismatch) evaluates Call, the CallEval it
// replaces.
type CompareEval struct {
	Call  CallEval
	Path  PathEval
	Const item.Item
	holds func(c int) bool
}

// NewCompareEval returns the in-place form of fn(path, c), or ok=false when
// fn is not a value comparison or c is not a single number, string, boolean
// or dateTime.
func NewCompareEval(fn *Function, path PathEval, c item.Sequence) (CompareEval, bool) {
	holds, isCmp := comparisons[fn.Name]
	if !isCmp || len(c) != 1 {
		return CompareEval{}, false
	}
	switch c[0].Kind() {
	case item.KindNumber, item.KindString, item.KindBool, item.KindDateTime:
	default:
		return CompareEval{}, false
	}
	call := CallEval{Fn: fn, Args: []Evaluator{path, ConstEval{Seq: c}}}
	return CompareEval{Call: call, Path: path, Const: c[0], holds: holds}, true
}

// Eval implements Evaluator.
func (e CompareEval) Eval(ctx *Ctx, tup Tuple) (item.Sequence, error) {
	it, ok, err := e.Path.iter(tup)
	if err != nil {
		return nil, err
	}
	if !ok {
		return e.Call.Eval(ctx, tup)
	}
	var first []byte
	n := 0
	for {
		m, more, err := it.next()
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		first = m
		if n++; n > 1 {
			break
		}
	}
	switch {
	case n == 0:
		return nil, nil // an empty operand yields the empty sequence
	case n > 1 || item.EncodedKind(first) != e.Const.Kind():
		return e.Call.Eval(ctx, tup) // reports the error comparison() reports
	}
	c, err := item.CompareEncoded(first, e.Const)
	if err != nil {
		return nil, err
	}
	if e.holds(c) {
		return trueSeq, nil
	}
	return falseSeq, nil
}
