package frame

import (
	"testing"

	"vxq/internal/item"
)

func TestLazyTupleDecodeOnDemand(t *testing.T) {
	seqs := []item.Sequence{
		item.Single(item.String("alpha")),
		item.Single(item.Number(42)),
		{item.Null{}, item.Bool(true)},
	}
	raw := EncodeFields(seqs)
	var lt LazyTuple
	lt.Reset(raw)
	if lt.FieldCount() != 3 || lt.RawFieldCount() != 3 {
		t.Fatalf("counts: %d/%d", lt.FieldCount(), lt.RawFieldCount())
	}
	s1, err := lt.Field(1)
	if err != nil || !item.EqualSeq(s1, seqs[1]) {
		t.Fatalf("Field(1) = %v, %v", s1, err)
	}
	// Memoized: second access returns the identical slice.
	s1b, _ := lt.Field(1)
	if len(s1) > 0 && &s1[0] != &s1b[0] {
		t.Error("Field(1) not memoized")
	}
	lt.Append(item.Single(item.String("extra")))
	if lt.FieldCount() != 4 {
		t.Fatalf("FieldCount after Append = %d", lt.FieldCount())
	}
	s3, err := lt.Field(3)
	if err != nil || len(s3) != 1 || !item.Equal(s3[0], item.String("extra")) {
		t.Fatalf("Field(3) = %v, %v", s3, err)
	}
	if _, err := lt.Field(4); err == nil {
		t.Error("Field(4): want out-of-range error")
	}
	for i, want := range seqs {
		got, err := lt.Field(i)
		if err != nil || !item.EqualSeq(got, want) {
			t.Errorf("field %d = %v, %v", i, got, err)
		}
	}
	// Reset drops memo and extras.
	lt.Reset(raw[:1])
	if lt.FieldCount() != 1 {
		t.Fatalf("FieldCount after Reset = %d", lt.FieldCount())
	}
}

func TestLazyTupleResetClearsMemo(t *testing.T) {
	rawA := EncodeFields([]item.Sequence{item.Single(item.String("a"))})
	rawB := EncodeFields([]item.Sequence{item.Single(item.String("b"))})
	var lt LazyTuple
	lt.Reset(rawA)
	if _, err := lt.Field(0); err != nil {
		t.Fatal(err)
	}
	lt.Reset(rawB)
	got, err := lt.Field(0)
	if err != nil || len(got) != 1 || !item.Equal(got[0], item.String("b")) {
		t.Fatalf("stale memo after Reset: %v, %v", got, err)
	}
}

func TestFrameFieldsSize(t *testing.T) {
	f := New(DefaultFrameSize)
	var want int64
	for i := 0; i < 5; i++ {
		fields := EncodeFields([]item.Sequence{
			item.Single(item.String("key")),
			item.Single(item.Number(float64(i))),
		})
		for _, fl := range fields {
			want += int64(len(fl))
		}
		if !f.AppendTuple(fields) {
			t.Fatal("AppendTuple failed")
		}
	}
	got, err := f.FieldsSize()
	if err != nil || got != want {
		t.Fatalf("FieldsSize = %d, %v; want %d", got, err, want)
	}
	if got, err := New(64).FieldsSize(); err != nil || got != 0 {
		t.Fatalf("empty FieldsSize = %d, %v", got, err)
	}
}
