package item

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The encoded-form kernels must agree exactly with the decoded forms: these
// property tests are the consistency guarantee DESIGN.md advertises.

func TestQuickHashEncodedMatchesHashSeq(t *testing.T) {
	f := func(a, b, c anyItem, n uint8) bool {
		s := Sequence{a.It, b.It, c.It}[:int(n)%4]
		buf := EncodeSeq(nil, s)
		h, err := HashEncoded(buf)
		return err == nil && h == HashSeq(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualEncodedMatchesEqualSeq(t *testing.T) {
	f := func(a, b, c, d anyItem, na, nb uint8) bool {
		// Small alphabets in randomItem make accidental equality common
		// enough that both branches of the property are exercised.
		s := Sequence{a.It, b.It}[:1+int(na)%2]
		u := Sequence{c.It, d.It}[:1+int(nb)%2]
		eq, err := EqualEncoded(EncodeSeq(nil, s), EncodeSeq(nil, u))
		return err == nil && eq == EqualSeq(s, u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickEqualEncodedSelf: every sequence (NaN-free, as randomItem only
// emits finite numbers) is EqualEncoded to itself, and re-encoding a
// key-shuffled copy of each object stays both equal and hash-identical even
// though the bytes differ.
func TestQuickEqualEncodedShuffledObjects(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(a anyItem) bool {
		s := Sequence{a.It}
		shuf := Sequence{shuffleKeys(r, a.It)}
		ea, es := EncodeSeq(nil, s), EncodeSeq(nil, shuf)
		eq, err := EqualEncoded(ea, es)
		if err != nil || !eq {
			return false
		}
		ha, err1 := HashEncoded(ea)
		hs, err2 := HashEncoded(es)
		return err1 == nil && err2 == nil && ha == hs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// shuffleKeys deep-copies an item, permuting every object's key order.
func shuffleKeys(r *rand.Rand, it Item) Item {
	switch x := it.(type) {
	case Array:
		out := make(Array, len(x))
		for i, m := range x {
			out[i] = shuffleKeys(r, m)
		}
		return out
	case *Object:
		perm := r.Perm(len(x.keys))
		keys := make([]string, len(x.keys))
		vals := make([]Item, len(x.vals))
		for i, p := range perm {
			keys[i] = x.keys[p]
			vals[i] = shuffleKeys(r, x.vals[p])
		}
		return MustObject(keys, vals)
	default:
		return it
	}
}

func TestEqualEncodedFloatSemantics(t *testing.T) {
	enc := func(f float64) []byte { return EncodeSeq(nil, Single(Number(f))) }
	negZero, posZero := enc(math.Copysign(0, -1)), enc(0)
	if eq, err := EqualEncoded(negZero, posZero); err != nil || !eq {
		t.Errorf("-0.0 vs 0.0: eq=%v err=%v, want true (bytes differ, values equal)", eq, err)
	}
	nan := enc(math.NaN())
	if eq, err := EqualEncoded(nan, nan); err != nil || eq {
		t.Errorf("NaN vs NaN: eq=%v err=%v, want false (matching decoded Equal)", eq, err)
	}
	// NaN still hashes deterministically by its bit pattern, like hashItem.
	h1, err1 := HashEncoded(nan)
	h2, err2 := HashEncoded(nan)
	if err1 != nil || err2 != nil || h1 != h2 || h1 != HashSeq(Single(Number(math.NaN()))) {
		t.Errorf("NaN hash: %d/%v vs %d/%v vs %d", h1, err1, h2, err2, HashSeq(Single(Number(math.NaN()))))
	}
}

func TestEncodedKernelsRejectMalformedInput(t *testing.T) {
	bad := [][]byte{
		{},                        // no sequence count
		{1},                       // count 1 but no item
		{1, 0xff},                 // unknown tag
		{1, tagNumber, 1, 2, 3},   // truncated number
		{1, tagString, 10, 'a'},   // truncated string
		{1, tagArray, 2, tagNull}, // truncated array
		{1, tagObject, 1, 3, 'a'}, // truncated object key
		{1, tagDateTime, 0x90},    // unterminated year uvarint
		{2, tagNull},              // count overruns items
		{1, tagObject, 1, 1, 'a'}, // key with no value
	}
	good := EncodeSeq(nil, Single(String("x")))
	for i, buf := range bad {
		if _, err := HashEncoded(buf); err == nil {
			t.Errorf("HashEncoded(bad[%d]) = nil error", i)
		}
		if _, err := EqualEncoded(buf, good); err == nil {
			// A count mismatch short-circuits before structural errors are
			// reachable, which is fine — only flag cases that claim equality.
			if eq, _ := EqualEncoded(buf, good); eq {
				t.Errorf("EqualEncoded(bad[%d], good) = true", i)
			}
		}
	}
	if _, err := HashEncoded(append(EncodeSeq(nil, nil), 0x00)); err == nil {
		t.Error("HashEncoded with trailing bytes: want error")
	}
}

func TestSeqCountEncoded(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		s := make(Sequence, n)
		for i := range s {
			s[i] = Number(float64(i))
		}
		buf := EncodeSeq(nil, s)
		got, err := SeqCountEncoded(buf)
		if err != nil || got != int64(n) {
			t.Errorf("SeqCountEncoded(%d items) = %d, %v", n, got, err)
		}
		if IsEmptySeqEncoded(buf) != (n == 0) {
			t.Errorf("IsEmptySeqEncoded(%d items) = %v", n, IsEmptySeqEncoded(buf))
		}
	}
	if _, err := SeqCountEncoded(nil); err == nil {
		t.Error("SeqCountEncoded(nil): want error")
	}
	if IsEmptySeqEncoded(nil) {
		t.Error("IsEmptySeqEncoded(nil) = true")
	}
}

// TestQuickCursorMemberCompareMatchDecoded: walking an encoded sequence with
// a Cursor yields exactly the encodings of its items; Member returns the
// encoding of Object.Value; EncodedKind is Kind; and CompareEncoded orders an
// encoded item against a scalar exactly as Compare does on the decoded item.
func TestQuickCursorMemberCompareMatchDecoded(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func(a, b, c anyItem, n uint8) bool {
		s := Sequence{a.It, b.It, c.It}[:int(n)%4]
		cur, err := NewCursor(EncodeSeq(nil, s))
		if err != nil {
			return false
		}
		for _, want := range s {
			enc, ok, err := cur.Next()
			if err != nil || !ok || string(enc) != string(Encode(nil, want)) || EncodedKind(enc) != want.Kind() {
				return false
			}
			for _, key := range []string{"a", "b", "c", "h", ""} {
				v, ok, err := Member(enc, key)
				var dv Item
				if o, isObj := want.(*Object); isObj {
					dv = o.Value(key)
				}
				if err != nil || ok != (dv != nil) || (ok && string(v) != string(Encode(nil, dv))) {
					return false
				}
			}
			// Any scalar against any scalar: same kinds compare in place,
			// other kinds order by kind.
			for _, other := range []Item{randomItem(r, 0), want, DateTime{Year: 2000, Month: 1, Day: 1}} {
				if other.Kind() == KindArray || other.Kind() == KindObject {
					continue
				}
				got, err := CompareEncoded(enc, other)
				if err != nil || got != Compare(want, other) {
					return false
				}
			}
		}
		_, ok, err := cur.Next()
		return !ok && err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPatchCountMatchesUvarint: a container opened with a one-byte count
// placeholder and patched afterwards encodes exactly as Encode, across the
// uvarint width boundaries.
func TestPatchCountMatchesUvarint(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 129, 300, 16383, 16384} {
		arr := make(Array, n)
		for i := range arr {
			arr[i] = Number(float64(i))
		}
		dst, at := AppendArrayStart([]byte{0xAA})
		for _, m := range arr {
			dst = AppendNumber(dst, float64(m.(Number)))
		}
		dst = PatchCount(dst, at, n)
		if want := Encode([]byte{0xAA}, arr); string(dst) != string(want) {
			t.Errorf("n=%d: patched array differs from Encode", n)
		}
	}
}
