package jsonparse

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"vxq/internal/item"
)

// The tree parser the token-stream encoder replaced, kept as its oracle: it
// builds an item.Item tree token by token (item.NewObject rejects duplicate
// keys), and item.Encode of that tree is what the encoder must write, byte
// for byte.

// treeParse parses one whole document with the oracle.
func treeParse(l *Lexer) (item.Item, error) {
	if err := l.Next(); err != nil {
		return nil, err
	}
	it, err := parseValue(l)
	if err != nil {
		return nil, err
	}
	if err := l.Next(); err != nil {
		return nil, err
	}
	if l.Kind != TokEOF {
		return nil, fmt.Errorf("json: offset %d: trailing content after document", l.Offset())
	}
	return it, nil
}

// parseValue parses the value whose first token is the lexer's current
// token; on return the current token is the value's last token.
func parseValue(l *Lexer) (item.Item, error) {
	switch l.Kind {
	case TokNull:
		return item.Null{}, nil
	case TokTrue:
		return item.Bool(true), nil
	case TokFalse:
		return item.Bool(false), nil
	case TokNumber:
		n, err := l.NumValue()
		if err != nil {
			return nil, err
		}
		return item.Number(n), nil
	case TokString:
		return item.String(l.StrBytes()), nil
	case TokLBracket:
		return parseArray(l)
	case TokLBrace:
		return parseObject(l)
	case TokEOF:
		return nil, fmt.Errorf("json: unexpected end of input")
	default:
		return nil, fmt.Errorf("json: offset %d: unexpected token %s", l.Offset(), l.Kind)
	}
}

func parseArray(l *Lexer) (item.Item, error) {
	arr := item.Array{}
	if err := l.Next(); err != nil {
		return nil, err
	}
	if l.Kind == TokRBracket {
		return arr, nil
	}
	for {
		it, err := parseValue(l)
		if err != nil {
			return nil, err
		}
		arr = append(arr, it)
		if err := l.Next(); err != nil {
			return nil, err
		}
		switch l.Kind {
		case TokComma:
			if err := l.Next(); err != nil {
				return nil, err
			}
		case TokRBracket:
			return arr, nil
		default:
			return nil, fmt.Errorf("json: offset %d: expected ',' or ']', got %s", l.Offset(), l.Kind)
		}
	}
}

func parseObject(l *Lexer) (item.Item, error) {
	var keys []string
	var vals []item.Item
	if err := l.Next(); err != nil {
		return nil, err
	}
	if l.Kind == TokRBrace {
		return item.MustObject(nil, nil), nil
	}
	for {
		if l.Kind != TokString {
			return nil, fmt.Errorf("json: offset %d: expected object key, got %s", l.Offset(), l.Kind)
		}
		key := string(l.StrBytes())
		if err := l.Next(); err != nil {
			return nil, err
		}
		if l.Kind != TokColon {
			return nil, fmt.Errorf("json: offset %d: expected ':', got %s", l.Offset(), l.Kind)
		}
		if err := l.Next(); err != nil {
			return nil, err
		}
		v, err := parseValue(l)
		if err != nil {
			return nil, err
		}
		keys = append(keys, key)
		vals = append(vals, v)
		if err := l.Next(); err != nil {
			return nil, err
		}
		switch l.Kind {
		case TokComma:
			if err := l.Next(); err != nil {
				return nil, err
			}
		case TokRBrace:
			return item.NewObject(keys, vals)
		default:
			return nil, fmt.Errorf("json: offset %d: expected ',' or '}', got %s", l.Offset(), l.Kind)
		}
	}
}

// lexerFor returns a slice lexer (chunk 0) or a streaming lexer reading data
// through a chunk buffer of the given size.
func lexerFor(data []byte, chunk int) *Lexer {
	if chunk == 0 {
		return NewLexer(data)
	}
	return NewStreamLexer(bytes.NewReader(data), chunk)
}

// checkEncodeAgainstOracle encodes data as one document from the token
// stream and compares the bytes (and any error text) with item.Encode of the
// oracle's tree, read through the same chunk size.
func checkEncodeAgainstOracle(t *testing.T, data []byte, chunk int) {
	t.Helper()
	var got []byte
	gerr := projectLexer(lexerFor(data, chunk), nil, func(enc []byte) error {
		got = append([]byte(nil), enc...)
		return nil
	})
	tree, werr := treeParse(lexerFor(data, chunk))
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("chunk %d, %q: encoder error %v, oracle error %v", chunk, data, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if got[0] != 1 {
		t.Fatalf("chunk %d, %q: emitted sequence count %d, want 1", chunk, data, got[0])
	}
	if want := item.Encode(nil, tree); !bytes.Equal(got[1:], want) {
		t.Fatalf("chunk %d, %q: encoder bytes\n%x\nwant item.Encode of the tree\n%x", chunk, data, got[1:], want)
	}
}

var encodeChunkSizes = []int{0, 7, 64, 4096}

func encodeCorpus() [][]byte {
	corpus := skipCorpus()
	for _, s := range []string{
		// Duplicate keys, at the top and nested, and after a later error.
		`{"a":1,"a":2}`, `{"a":1,"b":{"c":1,"c":2}}`, `{"a":{"x":1},"b":2,"a":3}`,
		`{"a":1,"a":2,"b":}`, `{"kA":1,"kA":2}`,
		// Escapes and surrogate pairs in keys and values.
		`{"😀":"😀","\n":"\t"}`, `["é\u0000"]`,
		// Numbers: negative zero, out of range, long mantissas.
		`-0`, `[-0,0,-0.0]`, `1e400`, `-1e400`, `123456789012345678`, `0.1e-400`,
		// Wide containers (counts over one uvarint byte).
		`[` + strings.Repeat(`1,`, 200) + `1]`,
		`{` + wideObject(150) + `}`, `{` + wideObject(20) + `,"k3":0}`,
		// Trailing content and empty input.
		``, ` `, `1 2`, `{} {}`,
	} {
		corpus = append(corpus, []byte(s))
	}
	return corpus
}

// wideObject renders n distinct members "k0":0,...
func wideObject(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"k%d":%d`, i, i)
	}
	return b.String()
}

func TestEncodeMatchesTreeOracle(t *testing.T) {
	for _, data := range encodeCorpus() {
		for _, chunk := range encodeChunkSizes {
			checkEncodeAgainstOracle(t, data, chunk)
		}
	}
}

func TestQuickEncodeMatchesTreeOracle(t *testing.T) {
	f := func(dp docAndPath) bool {
		src := []byte(item.JSON(dp.Doc))
		for _, chunk := range encodeChunkSizes {
			checkEncodeAgainstOracle(t, src, chunk)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDuplicateKeyError(t *testing.T) {
	_, err := Parse([]byte(`{"a":1,"b":2,"b":3,"a":4}`))
	if err == nil || err.Error() != `item: duplicate object key "b"` {
		t.Fatalf("got %v, want NewObject's duplicate-key error for \"b\"", err)
	}
}

// FuzzEncodeValue: the token-stream encoder writes exactly item.Encode of
// the oracle's tree, or both fail with the same error, at every stream
// chunk size.
func FuzzEncodeValue(f *testing.F) {
	for _, data := range encodeCorpus() {
		for sel := range encodeChunkSizes {
			f.Add(data, byte(sel))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, sel byte) {
		checkEncodeAgainstOracle(t, data, encodeChunkSizes[int(sel)%len(encodeChunkSizes)])
	})
}
