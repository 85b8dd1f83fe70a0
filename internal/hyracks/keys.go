package hyracks

import (
	"bytes"
	"fmt"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// keyEncoder resolves a tuple's key expressions into encoded key fields and
// their combined hash without decoding or re-allocating anything in the
// steady state. Column-reference keys (the overwhelmingly common case after
// the rewrite rules) are sliced straight out of the tuple's raw fields; path
// keys (value($v, "k"), runtime.PathEval) copy the selected member's bytes
// behind a sequence count; other computed keys are evaluated and encoded.
// Path and computed keys go into one reusable buffer.
//
// The returned field slices are scratch: they alias either the frame or the
// encoder's buffer and are only valid until the next resolve call. Callers
// that retain keys (group tables, join builds) must copy them (byteArena).
type keyEncoder struct {
	evals  []runtime.Evaluator
	cols   []int    // column per key when every eval is a ColumnEval, else nil
	fields [][]byte // scratch: resolved encoded key fields
	buf    []byte   // scratch: encodings of path and computed keys
	offs   []int    // scratch: field boundaries inside buf
}

// testHashEncodedField, when non-nil, replaces item.HashEncoded so tests can
// force hash collisions onto the bucket-chain/byte-compare path.
var testHashEncodedField func([]byte) (uint64, error)

func hashEncodedField(b []byte) (uint64, error) {
	if testHashEncodedField != nil {
		return testHashEncodedField(b)
	}
	return item.HashEncoded(b)
}

func newKeyEncoder(evals []runtime.Evaluator) *keyEncoder {
	ke := &keyEncoder{evals: evals, fields: make([][]byte, len(evals))}
	cols := make([]int, len(evals))
	for i, ev := range evals {
		ce, ok := ev.(runtime.ColumnEval)
		if !ok {
			cols = nil
			break
		}
		cols[i] = ce.Col
	}
	ke.cols = cols
	return ke
}

// resolve computes the encoded key fields and combined hash of one tuple.
// The hash combine matches the decoded reference's (refKeyHash) exactly: h
// starts at 1469598103934665603 and folds each key's sequence hash with
// h*prime ^ hk, where HashEncoded == HashSeq by the item package's
// consistency guarantee.
func (ke *keyEncoder) resolve(ctx *TaskCtx, lt *frame.LazyTuple) ([][]byte, uint64, error) {
	if ke.cols != nil {
		nraw := lt.RawFieldCount()
		for i, c := range ke.cols {
			if c < 0 || c >= nraw {
				// Match ColumnEval's bounds error (appended fields never
				// reach key resolution: exchanges and blocking operators see
				// only framed tuples).
				return nil, 0, fmt.Errorf("runtime: column %d out of range [0,%d)", c, lt.FieldCount())
			}
			ke.fields[i], _ = lt.RawField(c)
		}
	} else {
		// Path and computed keys: encode into one buffer. Offsets are
		// recorded during the loop and sliced afterwards, because append may
		// move the buffer while later keys are encoded.
		ke.buf = ke.buf[:0]
		ke.offs = ke.offs[:0]
		for _, ev := range ke.evals {
			ke.offs = append(ke.offs, len(ke.buf))
			if err := ke.encode(ctx, ev, lt); err != nil {
				return nil, 0, err
			}
		}
		ke.offs = append(ke.offs, len(ke.buf))
		for i := range ke.evals {
			ke.fields[i] = ke.buf[ke.offs[i]:ke.offs[i+1]]
		}
	}
	var h uint64 = 1469598103934665603
	for _, f := range ke.fields {
		hf, err := hashEncodedField(f)
		if err != nil {
			return nil, 0, err
		}
		h = h*1099511628211 ^ hf
	}
	return ke.fields, h, nil
}

// encode appends one key's encoded sequence to the buffer: a path key copies
// its member from the frame (the same bytes EncodeSeq would write for the
// decoded member, so the hash equals HashSeq by construction); anything else
// is evaluated and encoded.
func (ke *keyEncoder) encode(ctx *TaskCtx, ev runtime.Evaluator, lt *frame.LazyTuple) error {
	if p, ok := ev.(runtime.PathEval); ok {
		buf, ok, err := p.AppendEncoded(ke.buf, lt)
		if err != nil || ok {
			ke.buf = buf
			return err
		}
	}
	v, err := ev.Eval(ctx.RT, lt)
	if err != nil {
		return err
	}
	ke.buf = item.EncodeSeq(ke.buf, v)
	return nil
}

// matchEncodedKey compares two resolved key-field lists. Byte equality is
// the fast path; on mismatch it falls back to the structural EqualEncoded,
// because equal values may encode differently (object key order, -0.0).
// Byte-equal encodings are treated as equal without the structural walk,
// which coincides with EqualSeq for everything JSON can express (only NaN,
// unrepresentable in JSON, is bitwise-equal yet unequal).
func matchEncodedKey(a, b [][]byte) (bool, error) {
	for i := range a {
		if bytes.Equal(a[i], b[i]) {
			continue
		}
		eq, err := item.EqualEncoded(a[i], b[i])
		if err != nil || !eq {
			return false, err
		}
	}
	return true, nil
}
