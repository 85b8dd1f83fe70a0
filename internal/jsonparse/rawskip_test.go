package jsonparse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"vxq/internal/item"
)

// skipChunkSizes are the refill-window sizes the differential tests sweep:
// the pathological minimum (7 floors to the lexer's 64-byte window, forcing
// a refill every few tokens), sizes bracketing the structural-index block
// size (63, 64, 65 — one event exactly on, just before, and just after a
// block edge), and a size larger than every test document (no refill at
// all). Chunk 0 selects the in-memory slice lexer instead of a stream lexer.
var skipChunkSizes = []int{0, 7, 63, 64, 65, 4096}

// runSkip tokenizes the first token of data and skips the first value —
// through the token-level oracle when tokens is set, else SkipValueRaw —
// returning the absolute end offset of the skipped value.
func runSkip(data []byte, chunk int, tokens bool) (int, error) {
	var l *Lexer
	if chunk == 0 {
		l = NewLexer(data)
	} else {
		l = NewStreamLexer(bytes.NewReader(data), chunk)
	}
	if err := l.Next(); err != nil {
		return l.Offset(), err
	}
	if l.Kind == TokEOF {
		return l.Offset(), fmt.Errorf("empty input")
	}
	var err error
	if tokens {
		err = skipValue(l)
	} else {
		err = l.SkipValueRaw()
	}
	return l.Offset(), err
}

// skipValue is the token-level reference skip, the differential oracle for
// SkipValueRaw: it drives the lexer through every token of the skipped value
// (escape decoding, number shape checks). On return the current token is the
// value's last token.
func skipValue(l *Lexer) error {
	switch l.Kind {
	case TokNull, TokTrue, TokFalse, TokNumber, TokString:
		return nil
	case TokLBracket:
		depth := 1
		for depth > 0 {
			if err := l.Next(); err != nil {
				return err
			}
			switch l.Kind {
			case TokLBracket, TokLBrace:
				depth++
			case TokRBracket, TokRBrace:
				depth--
			case TokEOF:
				return fmt.Errorf("json: unexpected end of input in array")
			}
		}
		return nil
	case TokLBrace:
		depth := 1
		for depth > 0 {
			if err := l.Next(); err != nil {
				return err
			}
			switch l.Kind {
			case TokLBracket, TokLBrace:
				depth++
			case TokRBracket, TokRBrace:
				depth--
			case TokEOF:
				return fmt.Errorf("json: unexpected end of input in object")
			}
		}
		return nil
	default:
		return fmt.Errorf("json: offset %d: unexpected token %s", l.Offset(), l.Kind)
	}
}

// jsonOracleExtent decodes the first value of data with encoding/json,
// returning the end offset of the value, or ok=false when encoding/json
// rejects the input.
func jsonOracleExtent(data []byte) (end int, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return 0, false
	}
	start := 0
	for start < len(data) {
		switch data[start] {
		case ' ', '\t', '\n', '\r':
			start++
			continue
		}
		break
	}
	return start + len(raw), true
}

// checkSkipAgreement asserts the differential contract on one input:
//   - token-skip ok  ⇒  raw-skip ok with byte-for-byte the same extent;
//   - encoding/json ok  ⇒  token-skip ok with the same extent (so on every
//     input all oracles agree on valid values);
//   - raw-skip error ⇒ token-skip error (the raw scan is strictly more
//     permissive, never less).
func checkSkipAgreement(t *testing.T, data []byte, chunk int) {
	t.Helper()
	endTok, errTok := runSkip(data, chunk, true)
	endRaw, errRaw := runSkip(data, chunk, false)
	if errTok == nil {
		if errRaw != nil {
			t.Fatalf("chunk %d: token-skip ok (end %d) but raw-skip failed on %q: %v",
				chunk, endTok, data, errRaw)
		}
		if endRaw != endTok {
			t.Fatalf("chunk %d: skip extent diverges on %q: token %d, raw %d",
				chunk, data, endTok, endRaw)
		}
	} else if errRaw == nil && endRaw > len(data) {
		t.Fatalf("chunk %d: raw-skip ran past the input on %q", chunk, data)
	}
	if endJSON, ok := jsonOracleExtent(data); ok {
		if errTok != nil {
			t.Fatalf("chunk %d: encoding/json accepts %q but token-skip rejects it: %v",
				chunk, data, errTok)
		}
		if endTok != endJSON {
			t.Fatalf("chunk %d: extent diverges from encoding/json on %q: json %d, token %d",
				chunk, data, endJSON, endTok)
		}
	}
}

// skipCorpus is the hand-written differential corpus: escapes (including
// surrogate pairs and lone surrogates), deep nesting, numbers in every form,
// chunk-straddling strings, and structurally-broken inputs.
func skipCorpus() [][]byte {
	corpus := []string{
		// Scalars.
		`null`, `true`, `false`, `0`, `-12`, `3.5`, `1e3`, `2E-2`, `-0.5e+1`,
		`123456789012345678901234567890`, `1e999`, `0.00000000000000000001`,
		`""`, `"abc"`, `  42  `,
		// Escapes, surrogate pairs, lone surrogates.
		`"a\nb\t\"\\\/"`, `"A"`, `"😀"`, `"\ud800"`,
		`"é café"`, `"ends with backslash escape \\"`,
		// Containers with everything inside.
		`{}`, `[]`, `{"a":1}`, `[1,2,3]`,
		`{"k":"v","nested":{"deep":[1,{"x":null},"s"]},"n":-2.5e-3}`,
		`{"esc":"a\"b\\c","u":"😀","ctl":""}`,
		`[[[[[[[[[[1]]]]]]]]]]`,
		`[{"a":[{"b":[{"c":1}]}]}]`,
		// Strings long enough to straddle every chunk size.
		`"` + strings.Repeat("x", 200) + `"`,
		`{"pad":"` + strings.Repeat("y", 150) + `","v":1}`,
		`"` + strings.Repeat(`\\`, 100) + `"`,
		// Whitespace-heavy.
		"  {\n\t\"a\" : [ 1 ,\r\n 2 ] }  ",
		// Structurally broken: both skips must reject.
		`{`, `[`, `{"a":`, `{"a":[1,2`, `"unterminated`, `["a\`,
		"\"ctl \x01 char\"", `{"s":"bad ` + "\x02" + `"}`,
		// Broken only at token granularity: raw-skip may accept these,
		// checkSkipAgreement verifies the one-directional contract.
		`{"a":1x}`, `{"e":"\q"}`, `{"n":1.}`, `{"n":01}`, `[truu]`,
		`{"a" 1}`, `[1 2]`, `{"a":1,}`, `[1}`, `{"a":1]`,
	}
	// Deep nesting across a refill boundary.
	depth := 300
	corpus = append(corpus, strings.Repeat("[", depth)+"7"+strings.Repeat("]", depth))
	corpus = append(corpus, strings.Repeat(`{"k":[`, 50)+"1"+strings.Repeat("]}", 50))
	// Block-edge cases for the 64-byte structural-index kernel: every event
	// shifted to land exactly on, just before, and just after word (8B) and
	// block (64B) boundaries — closing quotes, backslashes split from their
	// escaped character, and long \\ runs whose parity decides whether the
	// next quote closes the string.
	for _, at := range []int{6, 7, 8, 9, 62, 63, 64, 65, 127, 128} {
		pad := strings.Repeat("a", at)
		corpus = append(corpus,
			`{"s":"`+pad+`"}`,                       // closing quote near the edge
			`{"s":"`+pad+`\n tail"}`,                // escape straddling the edge
			`{"s":"`+pad+`\\"}`,                     // backslash-backslash then quote
			`{"s":"`+pad+`\\\" still inside"}`,      // escaped quote after \\ run
			`{"s":"`+pad+`","t":[1,2],"u":{"v":9}}`, // structure right after the edge
			`["`+pad+`{not structure}","`+pad+`]"]`, // brackets inside strings at edges
		)
	}
	for _, n := range []int{31, 32, 33, 63, 64, 65} {
		run := strings.Repeat(`\\`, n)
		corpus = append(corpus,
			`{"s":"`+run+`"}`,        // even run, quote closes
			`{"s":"`+run+`\""}`,      // odd backslash before quote: stays open
			`{"s":"x`+run+`","k":1}`, // run shifted off word alignment
		)
	}
	out := make([][]byte, len(corpus))
	for i, s := range corpus {
		out[i] = []byte(s)
	}
	return out
}

// TestRawSkipDifferentialCorpus runs the differential (raw-skip vs
// token-skip vs encoding/json) over the hand-written corpus at every chunk
// size.
func TestRawSkipDifferentialCorpus(t *testing.T) {
	for _, data := range skipCorpus() {
		for _, chunk := range skipChunkSizes {
			checkSkipAgreement(t, data, chunk)
		}
	}
}

// TestRawSkipErrorTextAtMinimumWindow is the skip differential's error-text
// case: a stream lexer at the 64-byte minimum window runs the raw skip and
// agrees with the token-level oracle byte for byte — extent on the valid
// record, error text on the structurally broken ones (the errors both skips
// can see).
func TestRawSkipErrorTextAtMinimumWindow(t *testing.T) {
	record := `{"id":1,"note":"` + strings.Repeat(`pad \\\" `, 20) + `","nested":{"a":[1,2,{"b":null}]}}`
	for _, src := range []string{record, record[:len(record)-2], record[:40], "[\"ctl\x01\"]"} {
		endRaw, errRaw := runSkip([]byte(src), 64, false)
		endTok, errTok := runSkip([]byte(src), 64, true)
		if endRaw != endTok || fmt.Sprint(errRaw) != fmt.Sprint(errTok) {
			t.Errorf("%q: raw (%d, %v) != tokens (%d, %v)", src, endRaw, errRaw, endTok, errTok)
		}
	}
}

// TestRawSkipStructuralErrors pins the malformed inputs the raw scan must
// still detect: truncation, unterminated strings, control characters.
func TestRawSkipStructuralErrors(t *testing.T) {
	bad := []string{
		`{`, `[`, `{"a":1`, `[1,[2,3]`, `{"a":"unterminated`,
		"[\"ctl\x01\"]", `["straddle \`,
	}
	for _, src := range bad {
		for _, chunk := range skipChunkSizes {
			if _, err := runSkip([]byte(src), chunk, false); err == nil {
				t.Errorf("chunk %d: raw-skip accepted structurally broken %q", chunk, src)
			}
		}
	}
}

// TestRawSkipSetsClosingToken: after a raw skip the current token must be
// the value's closing brace/bracket, exactly like the reference, so the
// projector's loop structure is mode-independent.
func TestRawSkipSetsClosingToken(t *testing.T) {
	cases := map[string]TokenKind{
		`{"a":[1,2]}`: TokRBrace,
		`[{"a":1}]`:   TokRBracket,
	}
	for src, want := range cases {
		l := NewLexer([]byte(src))
		if err := l.Next(); err != nil {
			t.Fatal(err)
		}
		if err := l.SkipValueRaw(); err != nil {
			t.Fatal(err)
		}
		if l.Kind != want {
			t.Errorf("%s: Kind after raw skip = %s, want %s", src, l.Kind, want)
		}
	}
}

// ndjsonStream renders a stream of top-level values separated the way
// morsel scans see them: newline-delimited.
func ndjsonStream(vals []item.Item) []byte {
	var b bytes.Buffer
	for _, v := range vals {
		b.WriteString(item.JSON(v))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestQuickRawSkipMatchesTokenSkip is the core kernel property: for any
// document, both skip modes consume byte-for-byte the same extent, at every
// chunk size, and over NDJSON streams ScanValues projects identical results
// in both modes.
func TestQuickRawSkipMatchesTokenSkip(t *testing.T) {
	f := func(dp docAndPath) bool {
		src := []byte(item.JSON(dp.Doc))
		for _, chunk := range skipChunkSizes {
			endTok, errTok := runSkip(src, chunk, true)
			endRaw, errRaw := runSkip(src, chunk, false)
			if errTok != nil || errRaw != nil || endTok != endRaw {
				t.Logf("doc=%s chunk=%d: token(%d,%v) raw(%d,%v)",
					src, chunk, endTok, errTok, endRaw, errRaw)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
}

// TestQuickScanValuesModeEquivalence: a projected NDJSON scan (the morsel
// hot path, which skips whatever the path discards) counts every record and
// emits exactly what full tokenization yields — Parse of each record, nothing
// skipped, followed by ApplyPath — at every chunk size.
func TestQuickScanValuesModeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 1 + r.Intn(5)
		vals := make([]item.Item, n)
		for i := range vals {
			vals[i] = randomJSONValue(r, 3)
		}
		stream := ndjsonStream(vals)
		path := randomPath(r)
		var want item.Sequence
		for _, rec := range bytes.SplitAfter(stream, []byte("\n"))[:n] {
			doc, err := Parse(rec)
			if err != nil {
				t.Fatalf("Parse(%s): %v", rec, err)
			}
			want = append(want, ApplyPath(doc, path)...)
		}
		for _, chunk := range skipChunkSizes[1:] {
			var got item.Sequence
			count, err := ScanValues(NewStreamLexer(bytes.NewReader(stream), chunk), path, -1, func(it item.Item) error {
				got = append(got, it)
				return nil
			})
			if err != nil {
				t.Fatalf("chunk %d: ScanValues(%s, %s): %v", chunk, stream, path, err)
			}
			if count != n || !item.EqualSeq(got, want) {
				t.Fatalf("chunk %d: on %s path %s: scan (%d records) = %s, parse (%d records) = %s",
					chunk, stream, path, count, item.JSONSeq(got), n, item.JSONSeq(want))
			}
		}
	}
}

// FuzzRawSkipDifferential fuzzes the skip differential (tokens vs
// structural-index, cross-checked against encoding/json) over every chunk
// size. `make fuzz-smoke` runs it briefly in CI; run `go test
// -fuzz=FuzzRawSkipDifferential ./internal/jsonparse` for a real session.
func FuzzRawSkipDifferential(f *testing.F) {
	for _, data := range skipCorpus() {
		f.Add(data, byte(0))
		f.Add(data, byte(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, sel byte) {
		chunk := skipChunkSizes[int(sel)%len(skipChunkSizes)]
		checkSkipAgreement(t, data, chunk)
	})
}
