package runtime

import "vxq/internal/item"

// Evaluation on encoded bytes. The hot expressions of the paper's queries
// read members of a record, parse a date out of one, take its parts and
// compare them with constants; over a framed tuple all of it runs on the
// fields' encodings (Tuple.RawField) through an item.Cursor, so no item is
// built. Each evaluator returns exactly what the CallEval it replaces
// returns, error texts included: a tuple without encoded bytes for the
// column (SeqTuple) and every unusual operand (several items where one is
// expected, a kind mismatch, a bad date, an object given to data()) take the
// replaced CallEval.

// EncodedAppender is an evaluator that can write its result straight into
// encoded bytes. AppendEncoded appends the encoding of what Eval returns
// (item.EncodeSeq's layout) to dst. ok=false means it did not: the tuple
// holds no bytes for the operand, or an operand is unusual; the caller then
// calls Eval, which produces the result or the error, so an implementation
// never has to reproduce an error text. On ok=false the bytes past dst's
// original length are garbage; AppendEval drops them.
type EncodedAppender interface {
	Evaluator
	AppendEncoded(dst []byte, ctx *Ctx, tup Tuple) ([]byte, bool, error)
}

// AppendEval appends the encoding of ev's result over tup to dst: on the
// encoded bytes when ev is an EncodedAppender that can, else through Eval
// and item.EncodeSeq. The ASSIGN operator and the key encoder of group-by,
// join and hash exchange both write their computed fields through it. When
// it evaluated, it also returns the sequence Eval returned (nil otherwise),
// which the ASSIGN keeps so that a later evaluator does not decode it again.
func AppendEval(dst []byte, ev Evaluator, ctx *Ctx, tup Tuple) ([]byte, item.Sequence, error) {
	if a, ok := ev.(EncodedAppender); ok {
		n := len(dst)
		out, ok, err := a.AppendEncoded(dst, ctx, tup)
		if err != nil || ok {
			return out, nil, err
		}
		dst = out[:n]
	}
	v, err := ev.Eval(ctx, tup)
	if err != nil {
		return dst, nil, err
	}
	return item.EncodeSeq(dst, v), v, nil
}

// operand positions an iterator over the items of an encoded operand. A
// path is read in place from the tuple; any other appender writes into the
// context's scratch stack, one buffer per nesting depth, so an operand that
// itself has an appended operand never overwrites the bytes being read.
// The caller releases the depth with release(depth) once it is done with
// the items. ok is false when the operand cannot be read on bytes; the
// caller then evaluates the CallEval it replaces.
func (c *Ctx) operand(arg EncodedAppender, tup Tuple) (it pathIter, depth int, ok bool) {
	if p, isPath := arg.(PathEval); isPath {
		it, ok, err := p.iter(tup)
		return it, -1, ok && err == nil
	}
	if c == nil {
		return it, -1, false
	}
	depth = c.encDepth
	if depth == len(c.encStack) {
		c.encStack = append(c.encStack, nil)
	}
	c.encDepth++
	buf, ok, err := arg.AppendEncoded(c.encStack[depth][:0], c, tup)
	c.encStack[depth] = buf
	if ok && err == nil {
		it.cur, err = item.NewCursor(buf)
	}
	if !ok || err != nil {
		c.release(depth)
		return it, -1, false
	}
	return it, depth, true
}

// release pops the scratch buffer operand pushed at depth (a no-op for the
// -1 of an in-place path).
func (c *Ctx) release(depth int) {
	if depth >= 0 {
		c.encDepth = depth
	}
}

// PathEval is value(…value($Col, Keys[0])…, Keys[n-1]) with constant string
// keys; with no keys it is the column itself, as the operand of another
// encoded evaluator. Over an encoded field it walks to the selected members
// and decodes only those.
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
	if len(e.Keys) == 0 {
		return ColumnEval{Col: e.Col}.Eval(nil, tup)
	}
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

// AppendEncoded implements EncodedAppender by copying the selected members'
// bytes behind a count. ok is false when the tuple holds no encoded bytes
// for the column.
func (e PathEval) AppendEncoded(dst []byte, _ *Ctx, tup Tuple) ([]byte, bool, error) {
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

// CompareEval is a value comparison (eq, ne, lt, le, gt, ge) of an encoded
// operand with a number, string, boolean or dateTime constant. When the
// operand yields one item of the constant's kind, the item is compared in
// place (a path's member in the frame, any other operand's result in the
// context's scratch stack) and the result is a shared true or false
// sequence; anything else (no encoded bytes, several items, a kind
// mismatch) evaluates Call, the CallEval it replaces.
type CompareEval struct {
	Call  CallEval
	Arg   EncodedAppender
	Const item.Item
	holds func(c int) bool
	// path is Arg when Arg is a path (onPath), the hot case: Eval reads it
	// in place without going through operand.
	path   PathEval
	onPath bool
}

// NewCompareEval returns the in-place form of fn(arg, c), or ok=false when
// fn is not a value comparison or c is not a single number, string, boolean
// or dateTime.
func NewCompareEval(fn *Function, arg EncodedAppender, c item.Sequence) (CompareEval, bool) {
	holds, isCmp := comparisons[fn.Name]
	if !isCmp || len(c) != 1 {
		return CompareEval{}, false
	}
	switch c[0].Kind() {
	case item.KindNumber, item.KindString, item.KindBool, item.KindDateTime:
	default:
		return CompareEval{}, false
	}
	call := CallEval{Fn: fn, Args: []Evaluator{arg, ConstEval{Seq: c}}}
	path, onPath := arg.(PathEval)
	return CompareEval{Call: call, Arg: arg, Const: c[0], holds: holds, path: path, onPath: onPath}, true
}

// Eval implements Evaluator.
func (e CompareEval) Eval(ctx *Ctx, tup Tuple) (item.Sequence, error) {
	var (
		it    pathIter
		depth = -1
		ok    bool
	)
	if e.onPath {
		var err error
		it, ok, err = e.path.iter(tup)
		ok = ok && err == nil
	} else {
		it, depth, ok = ctx.operand(e.Arg, tup)
	}
	var v item.Sequence
	if ok {
		v, ok = e.compare(&it)
		ctx.release(depth)
	}
	if !ok {
		return e.Call.Eval(ctx, tup) // reports what comparison() reports
	}
	return v, nil
}

// compare compares the operand's single item with the constant in place.
// ok is false for what it leaves to Call: several items, a kind mismatch,
// a malformed encoding.
func (e CompareEval) compare(it *pathIter) (item.Sequence, bool) {
	first, more, err := it.next()
	switch {
	case err != nil:
		return nil, false
	case !more:
		return nil, true // an empty operand yields the empty sequence
	}
	if _, more, err = it.next(); more || err != nil || item.EncodedKind(first) != e.Const.Kind() {
		return nil, false
	}
	c, err := item.CompareEncoded(first, e.Const)
	if err != nil {
		return nil, false
	}
	return boolSeq(e.holds(c)), true
}

// DateTimeEval is dateTime(Arg) or dateTime(data(Arg)): on an operand of
// strings both parse each string's digits in place (item.ParseDateTime over
// the encoded bytes) and append the dateTime encodings. Any other item (a
// non-string, an object or array given to data(), a bad date) makes it
// evaluate Call, which reports the error.
type DateTimeEval struct {
	Call CallEval
	Arg  EncodedAppender
}

// Eval implements Evaluator.
func (e DateTimeEval) Eval(ctx *Ctx, tup Tuple) (item.Sequence, error) {
	return e.Call.Eval(ctx, tup)
}

// AppendEncoded implements EncodedAppender.
func (e DateTimeEval) AppendEncoded(dst []byte, ctx *Ctx, tup Tuple) ([]byte, bool, error) {
	return appendEach(dst, ctx, e.Arg, tup, func(dst, m []byte) ([]byte, bool) {
		s, isStr, err := item.EncodedString(m)
		if !isStr || err != nil {
			return dst, false
		}
		d, err := item.ParseDateTime(s)
		if err != nil {
			return dst, false
		}
		return item.AppendDateTime(dst, d), true
	})
}

// appendEach appends, behind a count, what conv makes of each item of arg's
// encoding. ok is false when arg cannot be read on bytes or conv refuses an
// item.
func appendEach(dst []byte, ctx *Ctx, arg EncodedAppender, tup Tuple, conv func(dst, it []byte) ([]byte, bool)) ([]byte, bool, error) {
	it, depth, ok := ctx.operand(arg, tup)
	at, n := len(dst), 0
	dst = append(dst, 0)
	for ok {
		m, more, err := it.next()
		if err != nil {
			ok = false
		} else if !more {
			dst = item.PatchCount(dst, at, n)
			break
		} else if dst, ok = conv(dst, m); ok {
			n++
		}
	}
	ctx.release(depth)
	return dst, ok, nil
}

// DatePartEval is year-, month- or day-from-dateTime(Arg): it reads each
// encoded dateTime of the operand and appends the part as a number. An item
// of any other kind makes it evaluate Call.
type DatePartEval struct {
	Call CallEval
	Arg  EncodedAppender
	part func(item.DateTime) int
}

// NewDatePartEval returns the encoded form of call, a date-part function
// applied to arg, or ok=false when call's function is not one.
func NewDatePartEval(call CallEval, arg EncodedAppender) (DatePartEval, bool) {
	part, ok := dateParts[call.Fn.Name]
	return DatePartEval{Call: call, Arg: arg, part: part}, ok
}

// Eval implements Evaluator.
func (e DatePartEval) Eval(ctx *Ctx, tup Tuple) (item.Sequence, error) {
	return e.Call.Eval(ctx, tup)
}

// AppendEncoded implements EncodedAppender.
func (e DatePartEval) AppendEncoded(dst []byte, ctx *Ctx, tup Tuple) ([]byte, bool, error) {
	return appendEach(dst, ctx, e.Arg, tup, func(dst, m []byte) ([]byte, bool) {
		d, isDate, err := item.EncodedDateTime(m)
		if !isDate || err != nil {
			return dst, false
		}
		return item.AppendNumber(dst, float64(e.part(d))), true
	})
}
