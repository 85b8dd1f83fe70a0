package jsonparse

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"vxq/internal/item"
)

// StepKind identifies one navigation step of a projection path.
type StepKind uint8

// Projection step kinds, mirroring the JSONiq navigation expressions of the
// paper (§3.2): Value by key, Value by index, and keys-or-members.
const (
	// StepKey descends into the value stored under Key of an object
	// (JSONiq value expression with a field name).
	StepKey StepKind = iota
	// StepIndex selects the Index-th (1-based) member of an array
	// (JSONiq value expression with an index).
	StepIndex
	// StepMembers enumerates all members of an array, or all keys of an
	// object (JSONiq keys-or-members expression).
	StepMembers
)

// Step is one navigation step.
type Step struct {
	Kind  StepKind
	Key   string // for StepKey
	Index int    // for StepIndex, 1-based
}

// Path is a sequence of navigation steps. It is the type of the DATASCAN
// second argument: DATASCAN applies the path to each document while parsing,
// emitting only the matching sub-items.
type Path []Step

// KeyStep returns a Value-by-key step.
func KeyStep(key string) Step { return Step{Kind: StepKey, Key: key} }

// IndexStep returns a Value-by-index step (1-based).
func IndexStep(i int) Step { return Step{Kind: StepIndex, Index: i} }

// MembersStep returns a keys-or-members step.
func MembersStep() Step { return Step{Kind: StepMembers} }

// String renders the path in JSONiq postfix syntax, e.g. ("root")()("results")().
func (p Path) String() string {
	var b strings.Builder
	for _, s := range p {
		switch s.Kind {
		case StepKey:
			b.WriteString("(")
			b.WriteString(strconv.Quote(s.Key))
			b.WriteString(")")
		case StepIndex:
			fmt.Fprintf(&b, "(%d)", s.Index)
		case StepMembers:
			b.WriteString("()")
		}
	}
	return b.String()
}

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Append returns a new path with extra steps appended (the receiver is not
// modified).
func (p Path) Append(steps ...Step) Path {
	out := make(Path, 0, len(p)+len(steps))
	out = append(out, p...)
	return append(out, steps...)
}

// ParsePath parses the JSONiq postfix rendering of a path, e.g.
// ("root")()("results")()("date") or ("items")(3), the inverse of
// Path.String.
func ParsePath(s string) (Path, error) {
	var p Path
	i := 0
	for i < len(s) {
		// Skip whitespace between steps.
		for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n') {
			i++
		}
		if i == len(s) {
			break
		}
		if s[i] != '(' {
			return nil, fmt.Errorf("jsonparse: path offset %d: expected '(', got %q", i, s[i])
		}
		i++
		if i < len(s) && s[i] == ')' {
			p = append(p, MembersStep())
			i++
			continue
		}
		if i < len(s) && s[i] == '"' {
			j := i + 1
			var key []byte
			for j < len(s) && s[j] != '"' {
				if s[j] == '\\' && j+1 < len(s) {
					j++
				}
				key = append(key, s[j])
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("jsonparse: path offset %d: unterminated key", i)
			}
			i = j + 1
			if i >= len(s) || s[i] != ')' {
				return nil, fmt.Errorf("jsonparse: path offset %d: expected ')'", i)
			}
			i++
			p = append(p, KeyStep(string(key)))
			continue
		}
		// Numeric index.
		j := i
		n := 0
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			n = n*10 + int(s[j]-'0')
			j++
		}
		if j == i || j >= len(s) || s[j] != ')' {
			return nil, fmt.Errorf("jsonparse: path offset %d: expected index or quoted key", i)
		}
		if n < 1 {
			return nil, fmt.Errorf("jsonparse: path offset %d: index must be >= 1", i)
		}
		i = j + 1
		p = append(p, IndexStep(n))
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("jsonparse: empty path")
	}
	return p, nil
}

// ApplyPath applies a projection path to a materialized item, returning the
// resulting sequence. It implements the JSONiq navigation semantics mapped
// over sequences and is the (slow) reference for the streaming projector.
func ApplyPath(it item.Item, path Path) item.Sequence {
	seq := item.Single(it)
	for _, s := range path {
		seq = ApplyStep(seq, s)
	}
	return seq
}

// ApplyStep applies one navigation step to every item of a sequence and
// concatenates the results.
func ApplyStep(seq item.Sequence, s Step) item.Sequence {
	var out item.Sequence
	for _, it := range seq {
		switch s.Kind {
		case StepKey:
			if o, ok := it.(*item.Object); ok {
				if v := o.Value(s.Key); v != nil {
					out = append(out, v)
				}
			}
		case StepIndex:
			if a, ok := it.(item.Array); ok {
				if s.Index >= 1 && s.Index <= len(a) {
					out = append(out, a[s.Index-1])
				}
			}
		case StepMembers:
			switch x := it.(type) {
			case item.Array:
				out = append(out, x...)
			case *item.Object:
				for _, k := range x.Keys() {
					out = append(out, item.String(k))
				}
			}
		}
	}
	return out
}

// Project streams over a raw JSON document, applies path while parsing, and
// calls emit for every item the path yields, in document order. Subtrees not
// on the path are scanned but never materialized. If emit returns an error,
// projection stops and that error is returned.
//
// Project(data, nil, emit) emits the whole document (equivalent to Parse).
func Project(data []byte, path Path, emit func(item.Item) error) error {
	return projectLexer(NewLexer(data), path, decoded(emit))
}

// ProjectReader streams over a JSON document read from r through a
// refillable chunk buffer of chunkSize bytes (DefaultChunkSize when
// chunkSize <= 0), applying path while parsing exactly like Project. The
// whole file is never materialized: peak memory is O(chunkSize + largest
// emitted item), not O(file size). Error offsets are absolute file offsets.
func ProjectReader(r io.Reader, chunkSize int, path Path, emit func(item.Item) error) error {
	return projectLexer(NewStreamLexer(r, chunkSize), path, decoded(emit))
}

// ScanValues processes a concatenated stream of top-level JSON values (the
// generalization of a single-document file: NDJSON, newline-separated
// records, or one whole document), applying path to each value and emitting
// the projected items. It is ScanEncoded with each emitted encoding decoded.
func ScanValues(l *Lexer, path Path, limit int64, emit func(item.Item) error) (int, error) {
	return ScanRecords(l, path, limit, func(_ int64, it item.Item) error { return emit(it) })
}

// ScanRecords is ScanValues with record provenance: emit additionally
// receives the line-start offset of the record each projected item came from
// (the same offset ScanEncoded bounds with limit). Zone-map builds use it to
// assign per-record stats to byte-range zones that line up exactly with
// morsel ownership.
func ScanRecords(l *Lexer, path Path, limit int64, emit func(lineStart int64, it item.Item) error) (int, error) {
	var start int64
	tree := decoded(func(it item.Item) error { return emit(start, it) })
	return ScanEncoded(l, path, limit, func(ls int64, enc []byte) error {
		start = ls
		return tree(enc)
	})
}

// ScanEncoded processes a concatenated stream of top-level JSON values,
// applying path to each value and emitting the item encoding of every
// projected value as a one-item sequence (item.EncodeSeq's layout, a frame
// field), built straight from the token stream: no item tree is built. The
// encoding is scratch, valid until emit returns. emit also receives the
// line-start offset of the record the value came from.
//
// Only values whose line starts at an absolute offset < limit are processed
// (limit < 0 means unbounded); a value is parsed to completion even when it
// extends past the limit. This is exactly the morsel ownership rule: a
// record belongs to the byte range its line start falls in, where the line
// start is the offset just past the last '\n' before the record
// (LineStart). Anchoring ownership at the newline — not at the record's
// first non-whitespace byte — keeps the producer's cut-off consistent with
// the consumer's SkipPastNewline alignment, so a record preceded by
// post-newline whitespace that straddles a boundary is emitted exactly once.
// It returns the number of top-level values processed.
func ScanEncoded(l *Lexer, path Path, limit int64, emit func(lineStart int64, enc []byte) error) (int, error) {
	n := 0
	// One closure for the whole scan (not one per record): start is rebound
	// each iteration, keeping the hot path at zero allocations per record.
	var start int64
	wrapped := func(enc []byte) error { return emit(start, enc) }
	for {
		done, err := l.AtEOF()
		if err != nil {
			return n, err
		}
		if done {
			return n, nil
		}
		start = l.LineStart()
		if limit >= 0 && start >= limit {
			return n, nil
		}
		if err := l.Next(); err != nil {
			return n, err
		}
		if l.Kind == TokEOF {
			return n, nil
		}
		if err := projectValue(l, path, wrapped); err != nil {
			return n, err
		}
		n++
	}
}

func projectLexer(l *Lexer, path Path, emit func([]byte) error) error {
	if err := l.Next(); err != nil {
		return err
	}
	if err := projectValue(l, path, emit); err != nil {
		return err
	}
	if err := l.Next(); err != nil {
		return err
	}
	if l.Kind != TokEOF {
		return fmt.Errorf("json: offset %d: trailing content after document", l.Offset())
	}
	return nil
}

// projectValue processes the value whose first token is current, applying
// path[0:] to it and emitting each projected value's one-item sequence
// encoding. On return the current token is the value's last token.
func projectValue(l *Lexer, path Path, emit func([]byte) error) error {
	if len(path) == 0 {
		l.keySpans = l.keySpans[:0]
		enc, err := l.encodeValue(append(l.enc[:0], 1))
		l.enc = enc
		if err != nil {
			return err
		}
		return emit(enc)
	}
	step := path[0]
	rest := path[1:]
	switch l.Kind {
	case TokLBrace:
		switch step.Kind {
		case StepKey:
			return projectObjectKey(l, step.Key, rest, emit)
		case StepMembers:
			return projectObjectKeys(l, rest, emit)
		default: // StepIndex on an object yields nothing.
			return l.SkipValueRaw()
		}
	case TokLBracket:
		switch step.Kind {
		case StepMembers:
			return projectArrayMembers(l, rest, emit)
		case StepIndex:
			return projectArrayIndex(l, step.Index, rest, emit)
		default: // StepKey on an array yields nothing.
			return l.SkipValueRaw()
		}
	default:
		// A scalar with remaining path steps yields nothing.
		return l.SkipValueRaw()
	}
}

// bytesEqString reports b == s without converting either side (neither
// []byte(s) nor string(b) — the projector compares one candidate key per
// object member, so an allocation here would dominate the skip path).
func bytesEqString(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

func projectObjectKey(l *Lexer, key string, rest Path, emit func([]byte) error) error {
	// Current token is '{'. Member boundaries, keys and colons are consumed
	// by the raw member scan, and non-matching values by SkipNextValue, so
	// a member that is not projected never materializes a single token.
	first := true
	for {
		kb, closed, err := l.objectMember(first)
		if err != nil {
			return err
		}
		if closed {
			return nil
		}
		first = false
		if bytesEqString(kb, key) {
			if err := l.Next(); err != nil {
				return err
			}
			if err := projectValue(l, rest, emit); err != nil {
				return err
			}
		} else if err := l.SkipNextValue(); err != nil {
			return err
		}
	}
}

func projectObjectKeys(l *Lexer, rest Path, emit func([]byte) error) error {
	// keys-or-members on an object: emit each key (a string item) after
	// applying the remaining path to it. A string with remaining steps
	// yields nothing, so only an empty rest emits.
	first := true
	for {
		kb, closed, err := l.objectMember(first)
		if err != nil {
			return err
		}
		if closed {
			return nil
		}
		first = false
		if len(rest) == 0 {
			l.enc = item.AppendString(append(l.enc[:0], 1), kb)
			if err := emit(l.enc); err != nil {
				return err
			}
		}
		if err := l.SkipNextValue(); err != nil {
			return err
		}
	}
}

func projectArrayMembers(l *Lexer, rest Path, emit func([]byte) error) error {
	if err := l.Next(); err != nil {
		return err
	}
	if l.Kind == TokRBracket {
		return nil
	}
	for {
		if err := projectValue(l, rest, emit); err != nil {
			return err
		}
		if err := l.Next(); err != nil {
			return err
		}
		switch l.Kind {
		case TokComma:
			if err := l.Next(); err != nil {
				return err
			}
		case TokRBracket:
			return nil
		default:
			return fmt.Errorf("json: offset %d: expected ',' or ']', got %s", l.Offset(), l.Kind)
		}
	}
}

func projectArrayIndex(l *Lexer, index int, rest Path, emit func([]byte) error) error {
	if err := l.Next(); err != nil {
		return err
	}
	if l.Kind == TokRBracket {
		return nil
	}
	pos := 1
	for {
		if pos == index {
			if err := projectValue(l, rest, emit); err != nil {
				return err
			}
		} else if err := l.SkipValueRaw(); err != nil {
			return err
		}
		if err := l.Next(); err != nil {
			return err
		}
		switch l.Kind {
		case TokComma:
			pos++
			if err := l.Next(); err != nil {
				return err
			}
		case TokRBracket:
			return nil
		default:
			return fmt.Errorf("json: offset %d: expected ',' or ']', got %s", l.Offset(), l.Kind)
		}
	}
}
