package jsonparse

import (
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

func parseLexer(l *Lexer) (item.Item, error) {
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
		return l.internStringItem(), nil
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
	var arr item.Array
	if err := l.Next(); err != nil {
		return nil, err
	}
	if l.Kind == TokRBracket {
		return item.Array{}, nil
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
		key := l.InternKey()
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

// internStringItem materializes the current TokString token as a boxed
// item.String through the lexer's string-item cache: a value repeated across
// records (status codes, enum-like fields) costs its string copy and
// interface allocation once, and zero allocations on every later occurrence.
// The cache shares maxInternEntries with the key intern table; past the cap,
// values are materialized per occurrence.
func (l *Lexer) internStringItem() item.Item {
	if it, ok := l.strItems[string(l.str)]; ok { // no-alloc map probe
		return it
	}
	s := item.String(l.str)
	var it item.Item = s
	if l.strItems == nil {
		l.strItems = make(map[string]item.Item, 16)
	}
	if len(l.strItems) < maxInternEntries {
		l.strItems[string(s)] = it
	}
	return it
}
