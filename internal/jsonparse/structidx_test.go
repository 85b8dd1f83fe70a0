package jsonparse

import (
	"math/rand"
	"strings"
	"testing"
)

// refState is the byte-at-a-time reference of StructState: the obviously
// correct scalar machine every SWAR layer is checked against, bit by bit.
type refState struct {
	inStr bool
	esc   bool // the next byte is escaped
}

// refIndexBlock computes BlockMasks for one 64-byte block one byte at a time.
func refIndexBlock(b []byte, st *refState) BlockMasks {
	var m BlockMasks
	for i := 0; i < 64; i++ {
		c := b[i]
		bit := uint64(1) << uint(i)
		if c == '"' {
			m.Quote |= bit
		}
		if c == '\\' {
			m.Backslash |= bit
		}
		escaped := st.esc
		if escaped {
			m.Escaped |= bit
			st.esc = false
		} else if c == '\\' {
			st.esc = true
		}
		if c == '"' && !escaped {
			st.inStr = !st.inStr
		}
		if st.inStr {
			m.InString |= bit
		}
		inside := st.inStr
		switch c {
		case '{', '[':
			if !inside {
				m.Open |= bit
				m.Structural |= bit
			}
		case '}', ']':
			if !inside {
				m.Close |= bit
				m.Structural |= bit
			}
		case ',', ':':
			if !inside {
				m.Structural |= bit
			}
		case '\n':
			if !inside {
				m.Newline |= bit
			}
		}
		if c < 0x20 && inside && !escaped {
			m.CtlInStr |= bit
		}
	}
	return m
}

// structidxInputs are byte streams that concentrate the hard cases: escape
// runs straddling word and block edges, quotes and brackets at every offset
// near 8- and 64-byte boundaries, newlines inside and outside strings
// (escaped — a raw newline inside a string is invalid JSON, but the scalar
// reference and the SWAR kernel must still agree byte-for-byte on such
// inputs), and control characters.
func structidxInputs() [][]byte {
	var inputs [][]byte
	for _, s := range []string{
		`{"a":1,"b":[true,null,"x"],"c":{"d":-2.5e3}}` + "\n",
		`{"note":"line\nline\\\"quoted\\\"","k":[1,2]}` + "\n",
		strings.Repeat(`\`, 129) + `"` + "\n[]{}",
		`"` + strings.Repeat(`\\`, 40) + `"` + "\n" + `"` + strings.Repeat(`\\`, 40) + `\"` + "\n",
		"\x01\x02\"\x03inside\x04\"\x05\n",
		strings.Repeat("{\"k\":\"v\"}\n", 30),
	} {
		inputs = append(inputs, []byte(s))
	}
	for _, at := range []int{6, 7, 8, 9, 62, 63, 64, 65, 70, 126, 127, 128, 129} {
		pad := strings.Repeat("a", at)
		inputs = append(inputs,
			[]byte(`{"s":"`+pad+`"}`+"\n"),
			[]byte(`{"s":"`+pad+`\n"}`+"\n"),
			[]byte(`{"s":"`+pad+`\\"}`+"\n{}"),
			[]byte(`["`+pad+`{\n}[]"]`+"\n"),
		)
	}
	r := rand.New(rand.NewSource(42))
	alphabet := []byte(`"\{}[],:` + "\n\x01 abc0")
	for n := 0; n < 8; n++ {
		b := make([]byte, 64*3+17)
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		inputs = append(inputs, b)
	}
	return inputs
}

// pad64 zero-pads data to a whole number of 64-byte blocks (zero bytes are
// treated identically by both machines).
func pad64(data []byte) []byte {
	n := (len(data) + 63) &^ 63
	out := make([]byte, n)
	copy(out, data)
	return out
}

// TestIndexBlockMatchesReference checks every bitmap layer of IndexBlock
// against the scalar reference, block after block, with state carried across
// block boundaries.
func TestIndexBlockMatchesReference(t *testing.T) {
	for _, data := range structidxInputs() {
		data = pad64(data)
		var st StructState
		var ref refState
		for off := 0; off < len(data); off += 64 {
			got := IndexBlock(data[off:off+64], &st)
			want := refIndexBlock(data[off:off+64], &ref)
			if got != want {
				t.Fatalf("block at %d of %q:\n got %+v\nwant %+v", off, data, got, want)
			}
			if st.inString() != ref.inStr || st.nextEscaped() != ref.esc {
				t.Fatalf("carry state diverges at %d of %q: swar(str=%v esc=%v) ref(str=%v esc=%v)",
					off, data, st.inString(), st.nextEscaped(), ref.inStr, ref.esc)
			}
		}
	}
}

// refStringSeek is the scalar twin of stringSeek.
func refStringSeek(buf []byte, p int) int {
	for p < len(buf) {
		if c := buf[p]; c == '"' || c == '\\' || c < 0x20 {
			return p
		}
		p++
	}
	return p
}

// refStructSeek returns the next true structural event (quote or bracket).
func refStructSeek(buf []byte, p int) int {
	for p < len(buf) {
		switch buf[p] {
		case '"', '{', '[', '}', ']':
			return p
		}
		p++
	}
	return p
}

// TestStringSeekExact: stringSeek must return exactly the next string event
// from every start position — its loose word probes guarantee the lowest set
// bit is a real event, so no re-check is needed by callers.
func TestStringSeekExact(t *testing.T) {
	for _, buf := range structidxInputs() {
		for p := 0; p <= len(buf); p++ {
			if got, want := stringSeek(buf, p), refStringSeek(buf, p); got != want {
				t.Fatalf("stringSeek(%q, %d) = %d, want %d", buf, p, got, want)
			}
		}
	}
}

// TestStructSeekVisitsAllEvents: structSeek may stop at fold-range false
// positives, but iterating it with the caller-side re-check must visit
// exactly the true event sequence — never skipping an event, never moving
// backward, always making progress.
func TestStructSeekVisitsAllEvents(t *testing.T) {
	for _, buf := range structidxInputs() {
		var want []int
		for p := refStructSeek(buf, 0); p < len(buf); p = refStructSeek(buf, p+1) {
			want = append(want, p)
		}
		var got []int
		for p := 0; p < len(buf); {
			q := structSeek(buf, p)
			if q < p || q > len(buf) {
				t.Fatalf("structSeek(%q, %d) = %d: out of range", buf, p, q)
			}
			if q == len(buf) {
				break
			}
			switch buf[q] {
			case '"', '{', '[', '}', ']':
				got = append(got, q)
			}
			p = q + 1
		}
		if len(got) != len(want) {
			t.Fatalf("structSeek over %q visited %d events, want %d", buf, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("structSeek over %q: event %d at %d, want %d", buf, i, got[i], want[i])
			}
		}
	}
}

// refBoundarySplits is the scalar reference for BoundaryScanner: track string
// state byte by byte, record the first post-newline offset at or after every
// grain point.
func refBoundarySplits(data []byte, grain int64) []int64 {
	var st refState
	var splits []int64
	next := grain
	if grain == 0 {
		next = 1
	}
	for i := 0; i < len(data); i++ {
		c := data[i]
		escaped := st.esc
		if escaped {
			st.esc = false
		} else if c == '\\' {
			st.esc = true
		}
		if c == '"' && !escaped {
			st.inStr = !st.inStr
		}
		if c == '\n' && !st.inStr {
			start := int64(i) + 1
			if start >= next {
				splits = append(splits, start)
				if grain == 0 {
					next = start + 1
				} else {
					next = (start/grain + 1) * grain
				}
			}
		}
	}
	return splits
}

// TestBoundaryScannerMatchesReference sweeps write-chunk sizes across the
// 64-byte block carry (1, 7, 63, 64, 65, whole) and several grains, including
// zero (every record start), against the scalar reference.
func TestBoundaryScannerMatchesReference(t *testing.T) {
	for _, data := range structidxInputs() {
		for _, grain := range []int64{0, 1, 5, 64, 4096} {
			want := refBoundarySplits(data, grain)
			for _, chunk := range []int{1, 7, 63, 64, 65, len(data)} {
				if chunk == 0 {
					continue
				}
				bs := NewBoundaryScanner(grain)
				for off := 0; off < len(data); off += chunk {
					end := off + chunk
					if end > len(data) {
						end = len(data)
					}
					bs.Write(data[off:end])
				}
				bs.Close()
				got := bs.Splits()
				if len(got) != len(want) {
					t.Fatalf("grain=%d chunk=%d on %q: %d splits %v, want %d %v",
						grain, chunk, data, len(got), got, len(want), want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("grain=%d chunk=%d on %q: split %d = %d, want %d",
							grain, chunk, data, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestBoundaryScannerRecordStarts: on a well-formed NDJSON buffer with zero
// grain, the splits are exactly the start offsets of records 2..n (offset 0
// is implicit) plus the offset just past the final newline.
func TestBoundaryScannerRecordStarts(t *testing.T) {
	recs := [][]byte{
		[]byte(`{"a":1,"note":"first\nrecord\\"}`),
		[]byte(`{"b":[1,2,{"c":"x\n\ny"}]}`),
		[]byte(`{"d":"` + strings.Repeat(`\\`, 33) + `"}`),
		[]byte(`{"e":null}`),
	}
	var data []byte
	var want []int64
	for _, r := range recs {
		data = append(data, r...)
		data = append(data, '\n')
		want = append(want, int64(len(data)))
	}
	bs := NewBoundaryScanner(0)
	bs.Write(data)
	bs.Close()
	got := bs.Splits()
	if len(got) != len(want) {
		t.Fatalf("splits = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("split %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// FuzzBoundaryScanner fuzzes the split scanner against the scalar reference
// with fuzzer-chosen write chunking and grain. `make fuzz-smoke` runs it
// briefly; seeds under testdata/fuzz are always replayed by plain `go test`.
func FuzzBoundaryScanner(f *testing.F) {
	f.Add([]byte("{\"a\":\"x\\n\"}\n{\"b\":2}\n"), byte(7), byte(1))
	f.Add([]byte(strings.Repeat(`\`, 65)+"\"\n[]\n"), byte(64), byte(0))
	f.Add([]byte("\"open string\n\n\n"), byte(1), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, chunkSel, grainSel byte) {
		chunks := []int{1, 3, 7, 63, 64, 65, 1024}
		grains := []int64{0, 1, 5, 64, 4096}
		chunk := chunks[int(chunkSel)%len(chunks)]
		grain := grains[int(grainSel)%len(grains)]
		want := refBoundarySplits(data, grain)
		bs := NewBoundaryScanner(grain)
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			bs.Write(data[off:end])
		}
		bs.Close()
		got := bs.Splits()
		if len(got) != len(want) {
			t.Fatalf("grain=%d chunk=%d: splits %v, want %v", grain, chunk, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("grain=%d chunk=%d: split %d = %d, want %d", grain, chunk, i, got[i], want[i])
			}
		}
	})
}
