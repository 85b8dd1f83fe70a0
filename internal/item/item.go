// Package item implements the JSONiq data model used throughout the engine:
// JSON items (null, boolean, number, string, object, array), the xs:dateTime
// item produced by the dateTime() constructor, and sequences of items.
//
// Items are immutable after construction. The package also provides a compact
// binary encoding (used for tuple fields inside Hyracks frames), structural
// equality, ordering for group-by/join keys, and 64-bit hashing.
package item

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of an Item.
type Kind uint8

// The item kinds of the JSONiq data model plus xs:dateTime.
const (
	KindNull Kind = iota
	KindBool
	KindNumber
	KindString
	KindArray
	KindObject
	KindDateTime
)

// String returns the JSONiq name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindArray:
		return "array"
	case KindObject:
		return "object"
	case KindDateTime:
		return "dateTime"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Item is a single value of the JSONiq data model.
//
// The concrete types are Null, Bool, Number, String, Array, *Object and
// DateTime. Items are treated as immutable: operators share them freely
// across tuples and partitions.
type Item interface {
	// Kind reports the dynamic type of the item.
	Kind() Kind
	// appendJSON appends the canonical JSON (or JSONiq literal) rendering.
	appendJSON(dst []byte) []byte
}

// Null is the JSON null item.
type Null struct{}

// Bool is a JSON boolean item.
type Bool bool

// Number is a JSON number item. Numbers are carried as float64, which is
// sufficient for the sensor workloads of the paper; integral values are
// printed without a fractional part.
type Number float64

// String is a JSON string item.
type String string

// Array is a JSON array item: an ordered list of members.
type Array []Item

// Object is a JSON object item: an ordered set of key/value pairs.
// Key order is preserved from the input; duplicate keys keep the first
// occurrence (as JSONiq requires objects to have unique keys, the parser
// rejects duplicates).
type Object struct {
	keys []string
	vals []Item
}

// DateTime is the xs:dateTime item produced by the dateTime() constructor
// function. Only the components needed by the paper's queries are modeled.
type DateTime struct {
	Year, Month, Day     int
	Hour, Minute, Second int
}

func (Null) Kind() Kind     { return KindNull }
func (Bool) Kind() Kind     { return KindBool }
func (Number) Kind() Kind   { return KindNumber }
func (String) Kind() Kind   { return KindString }
func (Array) Kind() Kind    { return KindArray }
func (*Object) Kind() Kind  { return KindObject }
func (DateTime) Kind() Kind { return KindDateTime }

// NewObject builds an object from parallel key/value slices. It panics if the
// slices have different lengths; duplicate keys are rejected with an error.
func NewObject(keys []string, vals []Item) (*Object, error) {
	if len(keys) != len(vals) {
		panic("item: NewObject key/value length mismatch")
	}
	if len(keys) > 1 {
		seen := make(map[string]struct{}, len(keys))
		for _, k := range keys {
			if _, dup := seen[k]; dup {
				return nil, fmt.Errorf("item: duplicate object key %q", k)
			}
			seen[k] = struct{}{}
		}
	}
	return &Object{keys: keys, vals: vals}, nil
}

// MustObject is NewObject for trusted (test/generator) input.
func MustObject(keys []string, vals []Item) *Object {
	o, err := NewObject(keys, vals)
	if err != nil {
		panic(err)
	}
	return o
}

// ObjectFromPairs builds an object from alternating key, value arguments.
func ObjectFromPairs(pairs ...any) *Object {
	if len(pairs)%2 != 0 {
		panic("item: ObjectFromPairs needs an even number of arguments")
	}
	keys := make([]string, 0, len(pairs)/2)
	vals := make([]Item, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		keys = append(keys, pairs[i].(string))
		vals = append(vals, pairs[i+1].(Item))
	}
	return MustObject(keys, vals)
}

// Len reports the number of pairs in the object.
func (o *Object) Len() int { return len(o.keys) }

// Keys returns the object's keys in insertion order. The returned slice is
// shared and must not be modified.
func (o *Object) Keys() []string { return o.keys }

// Pair returns the i-th key and value.
func (o *Object) Pair(i int) (string, Item) { return o.keys[i], o.vals[i] }

// Value returns the value stored under key, or nil if the key is absent.
func (o *Object) Value(key string) Item {
	for i, k := range o.keys {
		if k == key {
			return o.vals[i]
		}
	}
	return nil
}

// Compare orders two dateTimes chronologically.
func (d DateTime) Compare(e DateTime) int {
	a := [6]int{d.Year, d.Month, d.Day, d.Hour, d.Minute, d.Second}
	b := [6]int{e.Year, e.Month, e.Day, e.Hour, e.Minute, e.Second}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// ParseDateTime parses an ISO-8601-like dateTime of the forms
// "2006-01-02T15:04", "2006-01-02T15:04:05" or "2006-01-02". Every field is
// one or more plain decimal digits (no sign, no fraction); the fields are
// read in place, so parsing allocates only for the error of a bad input.
// The []byte form reads an encoded string's bytes without copying them.
func ParseDateTime[S ~string | ~[]byte](s S) (DateTime, error) {
	var d DateTime
	date, clock, timed := s, s[len(s):], false
	for i := 0; i < len(s); i++ {
		if s[i] == 'T' {
			date, clock, timed = s[:i], s[i+1:], true
			break
		}
	}
	ok := fieldThen(&date, &d.Year, '-') && fieldThen(&date, &d.Month, '-') && fieldThen(&date, &d.Day, 0)
	if timed {
		ok = ok && fieldThen(&clock, &d.Hour, ':')
		if ok && fieldThen(&clock, &d.Minute, ':') {
			ok = fieldThen(&clock, &d.Second, 0)
		} else {
			ok = ok && fieldThen(&clock, &d.Minute, 0)
		}
	}
	if !ok || d.Month < 1 || d.Month > 12 || d.Day < 1 || d.Day > 31 ||
		d.Hour < 0 || d.Hour > 23 || d.Minute < 0 || d.Minute > 59 ||
		d.Second < 0 || d.Second > 60 {
		return DateTime{}, fmt.Errorf("item: invalid dateTime %q", string(s))
	}
	return d, nil
}

// fieldThen reads one run of at least one decimal digit from the front of
// *s into *n, then requires the separator sep after it (sep 0 requires the
// end of *s), and advances *s past both. It reports false when the digits or
// the separator are missing.
func fieldThen[S ~string | ~[]byte](s *S, n *int, sep byte) bool {
	t := *s
	i, v := 0, 0
	for i < len(t) && t[i] >= '0' && t[i] <= '9' {
		v = v*10 + int(t[i]-'0')
		i++
	}
	if i == 0 {
		return false
	}
	switch {
	case sep == 0 && i == len(t):
		*s = t[i:]
	case sep != 0 && i < len(t) && t[i] == sep:
		*s = t[i+1:]
	default:
		return false
	}
	*n = v
	return true
}

// String renders the dateTime in ISO form.
func (d DateTime) String() string {
	return fmt.Sprintf("%04d-%02d-%02dT%02d:%02d:%02d",
		d.Year, d.Month, d.Day, d.Hour, d.Minute, d.Second)
}

// JSON returns the canonical JSON rendering of an item. DateTime renders as
// its ISO string in quotes.
func JSON(it Item) string { return string(AppendJSON(nil, it)) }

// AppendJSON appends the canonical JSON rendering of it to dst.
func AppendJSON(dst []byte, it Item) []byte { return it.appendJSON(dst) }

func (Null) appendJSON(dst []byte) []byte { return append(dst, "null"...) }

func (b Bool) appendJSON(dst []byte) []byte {
	if b {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

func (n Number) appendJSON(dst []byte) []byte {
	f := float64(n)
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

func (s String) appendJSON(dst []byte) []byte { return appendQuoted(dst, string(s)) }

func (a Array) appendJSON(dst []byte) []byte {
	dst = append(dst, '[')
	for i, m := range a {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = m.appendJSON(dst)
	}
	return append(dst, ']')
}

func (o *Object) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	for i, k := range o.keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendQuoted(dst, k)
		dst = append(dst, ':')
		dst = o.vals[i].appendJSON(dst)
	}
	return append(dst, '}')
}

func (d DateTime) appendJSON(dst []byte) []byte {
	dst = append(dst, '"')
	dst = append(dst, d.String()...)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			dst = append(dst, '\\', '"')
		case c == '\\':
			dst = append(dst, '\\', '\\')
		case c >= 0x20:
			dst = append(dst, c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
	}
	return append(dst, '"')
}

// Equal reports deep structural equality of two items. Numbers compare by
// float64 equality; objects compare by key set and per-key values (key order
// does not matter, per the JSONiq data model).
func Equal(a, b Item) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Kind() != b.Kind() {
		return false
	}
	switch x := a.(type) {
	case Null:
		return true
	case Bool:
		return x == b.(Bool)
	case Number:
		return x == b.(Number)
	case String:
		return x == b.(String)
	case DateTime:
		return x == b.(DateTime)
	case Array:
		y := b.(Array)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	case *Object:
		y := b.(*Object)
		if len(x.keys) != len(y.keys) {
			return false
		}
		for i, k := range x.keys {
			yv := y.Value(k)
			if yv == nil || !Equal(x.vals[i], yv) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare defines a total order over items, used for deterministic result
// ordering and for sort-based operators. The order is: kinds first (by Kind
// value), then within a kind: booleans false<true, numbers numerically,
// strings lexicographically, dateTimes chronologically, arrays element-wise,
// objects by sorted key list then per-key values.
func Compare(a, b Item) int {
	ka, kb := a.Kind(), b.Kind()
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	switch x := a.(type) {
	case Null:
		return 0
	case Bool:
		y := b.(Bool)
		switch {
		case x == y:
			return 0
		case !bool(x):
			return -1
		default:
			return 1
		}
	case Number:
		y := b.(Number)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case String:
		return strings.Compare(string(x), string(b.(String)))
	case DateTime:
		return x.Compare(b.(DateTime))
	case Array:
		y := b.(Array)
		n := min(len(x), len(y))
		for i := 0; i < n; i++ {
			if c := Compare(x[i], y[i]); c != 0 {
				return c
			}
		}
		return len(x) - len(y)
	case *Object:
		y := b.(*Object)
		xk := append([]string(nil), x.keys...)
		yk := append([]string(nil), y.keys...)
		sort.Strings(xk)
		sort.Strings(yk)
		n := min(len(xk), len(yk))
		for i := 0; i < n; i++ {
			if c := strings.Compare(xk[i], yk[i]); c != 0 {
				return c
			}
			if c := Compare(x.Value(xk[i]), y.Value(yk[i])); c != 0 {
				return c
			}
		}
		return len(xk) - len(yk)
	default:
		return 0
	}
}

// Hash64 returns a 64-bit FNV-1a structural hash, consistent with Equal:
// Equal items hash identically regardless of object key order.
func Hash64(it Item) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	h = hashItem(h, it)
	return h
}

func hashByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * 1099511628211
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	return h
}

func hashUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(v>>(8*i)))
	}
	return h
}

func hashItem(h uint64, it Item) uint64 {
	h = hashByte(h, byte(it.Kind()))
	switch x := it.(type) {
	case Null:
	case Bool:
		if x {
			h = hashByte(h, 1)
		} else {
			h = hashByte(h, 0)
		}
	case Number:
		h = hashUint64(h, math.Float64bits(float64(x)))
	case String:
		h = hashString(h, string(x))
	case DateTime:
		h = hashUint64(h, uint64(x.Year)<<40|uint64(x.Month)<<32|
			uint64(x.Day)<<24|uint64(x.Hour)<<16|uint64(x.Minute)<<8|uint64(x.Second))
	case Array:
		h = hashUint64(h, uint64(len(x)))
		for _, m := range x {
			h = hashItem(h, m)
		}
	case *Object:
		// Key-order independence: combine per-pair hashes with XOR.
		h = hashUint64(h, uint64(len(x.keys)))
		var acc uint64
		for i, k := range x.keys {
			ph := hashString(14695981039346656037, k)
			ph = hashItem(ph, x.vals[i])
			acc ^= ph
		}
		h = hashUint64(h, acc)
	}
	return h
}

// SizeBytes estimates the in-memory footprint of an item in bytes. It is used
// by the memory accountant to track buffered data volumes.
func SizeBytes(it Item) int64 {
	switch x := it.(type) {
	case Null, Bool:
		return 8
	case Number, DateTime:
		return 16
	case String:
		return 16 + int64(len(x))
	case Array:
		var n int64 = 24
		for _, m := range x {
			n += 16 + SizeBytes(m)
		}
		return n
	case *Object:
		var n int64 = 48
		for i, k := range x.keys {
			n += 32 + int64(len(k)) + SizeBytes(x.vals[i])
		}
		return n
	default:
		return 8
	}
}
