package jsonparse

import (
	"bytes"
	"fmt"
	"io"

	"vxq/internal/item"
)

// Parse parses a complete JSON document into an item tree. Trailing
// non-space content is an error.
func Parse(data []byte) (item.Item, error) {
	return parseLexer(NewLexer(data))
}

// ParseReader parses one complete JSON document streamed from r, reading
// through a refillable chunk buffer of chunkSize bytes (DefaultChunkSize
// when chunkSize <= 0). Peak lexer memory is O(chunkSize), independent of
// the document size; the resulting item tree is of course proportional to
// the document.
func ParseReader(r io.Reader, chunkSize int) (item.Item, error) {
	return parseLexer(NewStreamLexer(r, chunkSize))
}

// parseLexer encodes the document from the token stream and decodes the
// encoding: the tree is built in one place, item.Decode.
func parseLexer(l *Lexer) (item.Item, error) {
	var doc item.Item
	err := projectLexer(l, nil, decoded(func(it item.Item) error { doc = it; return nil }))
	return doc, err
}

// decoded adapts an item callback to the projector's encoded emits.
func decoded(emit func(item.Item) error) func(enc []byte) error {
	return func(enc []byte) error {
		it, _, err := item.Decode(enc[1:]) // enc is a one-item sequence
		if err != nil {
			return err
		}
		return emit(it)
	}
}

// encodeValue appends the item encoding of the value whose first token is
// the lexer's current token; on return the current token is the value's last
// token. The bytes are exactly item.Encode of the tree the value denotes:
// numbers convert through NumValue, container counts are back-patched
// (item.PatchCount), and an object with a repeated key fails with
// item.NewObject's error once the object is complete.
func (l *Lexer) encodeValue(dst []byte) ([]byte, error) {
	switch l.Kind {
	case TokNull:
		return item.AppendNull(dst), nil
	case TokTrue, TokFalse:
		return item.AppendBool(dst, l.Kind == TokTrue), nil
	case TokNumber:
		n, err := l.NumValue()
		return item.AppendNumber(dst, n), err
	case TokString:
		return item.AppendString(dst, l.str), nil
	case TokLBracket:
		return l.encodeArray(dst)
	case TokLBrace:
		return l.encodeObject(dst)
	case TokEOF:
		return dst, fmt.Errorf("json: unexpected end of input")
	default:
		return dst, fmt.Errorf("json: offset %d: unexpected token %s", l.Offset(), l.Kind)
	}
}

func (l *Lexer) encodeArray(dst []byte) ([]byte, error) {
	dst, at := item.AppendArrayStart(dst)
	if err := l.Next(); err != nil || l.Kind == TokRBracket {
		return dst, err
	}
	for n := 1; ; n++ {
		var err error
		if dst, err = l.encodeValue(dst); err != nil {
			return dst, err
		}
		if err := l.Next(); err != nil {
			return dst, err
		}
		switch l.Kind {
		case TokComma:
			if err := l.Next(); err != nil {
				return dst, err
			}
		case TokRBracket:
			return item.PatchCount(dst, at, n), nil
		default:
			return dst, fmt.Errorf("json: offset %d: expected ',' or ']', got %s", l.Offset(), l.Kind)
		}
	}
}

// encodeObject scans members with objectMember, the projector's raw key
// scan. Key positions inside dst go on the lexer's keySpans stack (offsets
// stay valid: a nested container only ever shifts bytes after its own
// header) until the closing brace checks them for duplicates.
func (l *Lexer) encodeObject(dst []byte) ([]byte, error) {
	dst, at := item.AppendObjectStart(dst)
	base := len(l.keySpans)
	for n := 0; ; n++ {
		kb, closed, err := l.objectMember(n == 0)
		if err != nil {
			return dst, err
		}
		if closed {
			err = dupKey(dst, l.keySpans[base:])
			l.keySpans = l.keySpans[:base]
			return item.PatchCount(dst, at, n), err
		}
		dst = item.AppendKey(dst, kb)
		l.keySpans = append(l.keySpans, keySpan{len(dst) - len(kb), len(dst)})
		if err := l.Next(); err != nil {
			return dst, err
		}
		if dst, err = l.encodeValue(dst); err != nil {
			return dst, err
		}
	}
}

// keySpan locates one object key's bytes inside an encoding being written.
type keySpan struct{ start, end int }

// dupKey reports the first key that repeats an earlier one, in NewObject's
// words. Records have a handful of keys, compared pairwise in place; wide
// objects go through a set.
func dupKey(enc []byte, keys []keySpan) error {
	var seen map[string]struct{}
	if len(keys) > 16 {
		seen = make(map[string]struct{}, len(keys))
	}
	for j, kj := range keys {
		k := enc[kj.start:kj.end]
		if seen != nil {
			if _, dup := seen[string(k)]; dup {
				return fmt.Errorf("item: duplicate object key %q", k)
			}
			seen[string(k)] = struct{}{}
			continue
		}
		for _, ki := range keys[:j] {
			if bytes.Equal(enc[ki.start:ki.end], k) {
				return fmt.Errorf("item: duplicate object key %q", k)
			}
		}
	}
	return nil
}
