package frame

import (
	"fmt"

	"vxq/internal/item"
)

// LazyTuple is an on-demand view of one tuple: the raw encoded field slices
// plus a per-field decode-on-first-access memo. Operators that only route,
// filter on one field, or copy bytes never pay for decoding the fields they
// don't touch — the binary-tuple discipline Hyracks operators follow.
//
// A LazyTuple also carries appended (computed) fields, so assign-style
// operators can extend a tuple without re-encoding its existing fields. An
// appended field is held encoded too (AppendRaw), so later evaluators of the
// same operator read it through RawField like a base field; Field returns
// the decoded form AppendRaw was given, or decodes the bytes when asked.
// Raw slices alias the frame buffer (or the appender's scratch) and must not
// be retained past the tuple; decoded sequences are freshly allocated by
// DecodeSeq and are safe to retain indefinitely.
//
// The zero value is an empty tuple; Reset rebinds the view to a new tuple
// while reusing the memo storage, so iterating a frame with one LazyTuple
// performs no per-tuple allocation beyond the decodes actually requested.
type LazyTuple struct {
	raw   [][]byte        // encoded base fields, aliasing the frame
	extra [][]byte        // encoded appended fields, past the base fields
	seqs  []item.Sequence // memoized decodes: base fields, then appended ones
	dec   []bool          // which entries of seqs are populated
}

// Reset rebinds the view to the given raw fields, dropping memoized decodes
// and appended fields but keeping their storage for reuse.
func (t *LazyTuple) Reset(raw [][]byte) {
	t.raw = raw
	if cap(t.seqs) < len(raw) {
		t.seqs = make([]item.Sequence, len(raw))
		t.dec = make([]bool, len(raw))
	} else {
		t.seqs = t.seqs[:len(raw)]
		t.dec = t.dec[:len(raw)]
		for i := range t.dec {
			t.dec[i] = false
			t.seqs[i] = nil
		}
	}
	t.extra = t.extra[:0]
}

// FieldCount reports the total number of fields: raw plus appended.
func (t *LazyTuple) FieldCount() int { return len(t.raw) + len(t.extra) }

// RawFieldCount reports the number of raw (encoded) base fields.
func (t *LazyTuple) RawFieldCount() int { return len(t.raw) }

// RawField returns the encoded bytes of field i: a base field's bytes alias
// the frame, an appended field's are the slice given to AppendRaw.
func (t *LazyTuple) RawField(i int) ([]byte, bool) {
	switch {
	case i < 0 || i >= t.FieldCount():
		return nil, false
	case i < len(t.raw):
		return t.raw[i], true
	default:
		return t.extra[i-len(t.raw)], true
	}
}

// Raw returns the raw base field slices. The slice and its contents alias
// the frame buffer.
func (t *LazyTuple) Raw() [][]byte { return t.raw }

// Field decodes field i on first access and memoizes the result. The
// returned sequence is freshly allocated (never aliases frame bytes) and may
// be retained by the caller.
func (t *LazyTuple) Field(i int) (item.Sequence, error) {
	raw, ok := t.RawField(i)
	if !ok {
		return nil, fmt.Errorf("frame: field index %d out of range [0,%d)", i, t.FieldCount())
	}
	if !t.dec[i] {
		s, err := item.DecodeSeq(raw)
		if err != nil {
			return nil, err
		}
		t.seqs[i] = s
		t.dec[i] = true
	}
	return t.seqs[i], nil
}

// AppendRaw adds a computed field after the base fields, given as its
// encoded sequence (item.EncodeSeq's layout). The bytes must stay unchanged
// until the next Reset. A non-nil dec is the same field decoded (the
// sequence an evaluator returned before it was encoded); Field returns it
// instead of decoding enc, so it must be retainable like a decode.
func (t *LazyTuple) AppendRaw(enc []byte, dec item.Sequence) {
	t.extra = append(t.extra, enc)
	t.seqs = append(t.seqs, dec)
	t.dec = append(t.dec, dec != nil)
}
