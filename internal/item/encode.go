package item

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding of items and sequences, used as the tuple-field format
// inside Hyracks frames.
//
// Item layout:
//
//	null      0x00
//	false     0x01
//	true      0x02
//	number    0x03 <8-byte little-endian float64 bits>
//	string    0x04 <uvarint len> <bytes>
//	array     0x05 <uvarint count> <items...>
//	object    0x06 <uvarint count> (<uvarint keylen> <key> <item>)...
//	dateTime  0x07 <uvarint year> <5 bytes month..second>
//
// Sequence layout: <uvarint count> <items...>.

const (
	tagNull     = 0x00
	tagFalse    = 0x01
	tagTrue     = 0x02
	tagNumber   = 0x03
	tagString   = 0x04
	tagArray    = 0x05
	tagObject   = 0x06
	tagDateTime = 0x07
)

// Encode appends the binary encoding of it to dst and returns the extended
// slice.
func Encode(dst []byte, it Item) []byte {
	switch x := it.(type) {
	case Null:
		return AppendNull(dst)
	case Bool:
		return AppendBool(dst, bool(x))
	case Number:
		return AppendNumber(dst, float64(x))
	case String:
		return AppendString(dst, x)
	case Array:
		dst = append(dst, tagArray)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		for _, m := range x {
			dst = Encode(dst, m)
		}
		return dst
	case *Object:
		dst = append(dst, tagObject)
		dst = binary.AppendUvarint(dst, uint64(len(x.keys)))
		for i, k := range x.keys {
			dst = AppendKey(dst, k)
			dst = Encode(dst, x.vals[i])
		}
		return dst
	case DateTime:
		dst = append(dst, tagDateTime)
		dst = binary.AppendUvarint(dst, uint64(x.Year))
		return append(dst, byte(x.Month), byte(x.Day), byte(x.Hour), byte(x.Minute), byte(x.Second))
	default:
		panic(fmt.Sprintf("item: cannot encode %T", it))
	}
}

// The append functions below write the encoding piece by piece, for
// producers that never build an Item (the streaming JSON encoder). Each
// appends exactly what Encode appends for the corresponding item; containers
// are opened with a one-byte count placeholder that PatchCount fills in
// once the members are written (Encode knows its counts up front and writes
// them directly, so it stays an independent oracle for PatchCount).

// AppendNull appends the encoding of null.
func AppendNull(dst []byte) []byte { return append(dst, tagNull) }

// AppendBool appends the encoding of a boolean.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, tagTrue)
	}
	return append(dst, tagFalse)
}

// AppendNumber appends the encoding of a number.
func AppendNumber(dst []byte, f float64) []byte {
	dst = append(dst, tagNumber)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendString appends the encoding of a string.
func AppendString[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = append(dst, tagString)
	return AppendKey(dst, s)
}

// AppendKey appends an object key (length-prefixed bytes, no tag); the
// member's value follows it.
func AppendKey[S ~string | ~[]byte](dst []byte, k S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(k)))
	return append(dst, k...)
}

// AppendArrayStart appends an array header whose count is not yet known and
// returns the count's position for PatchCount.
func AppendArrayStart(dst []byte) ([]byte, int) { return append(dst, tagArray, 0), len(dst) + 1 }

// AppendObjectStart is AppendArrayStart for an object; key/value pairs
// (AppendKey then the value) follow it.
func AppendObjectStart(dst []byte) ([]byte, int) { return append(dst, tagObject, 0), len(dst) + 1 }

// PatchCount writes count n into the one-byte placeholder at dst[at] (an
// array or object header, or a sequence count reserved by the caller),
// shifting everything after it when n needs a wider uvarint.
func PatchCount(dst []byte, at, n int) []byte {
	if n < 0x80 {
		dst[at] = byte(n)
		return dst
	}
	var b [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(b[:], uint64(n))
	end := len(dst)
	dst = append(dst, b[:w-1]...)
	copy(dst[at+w:], dst[at+1:end])
	copy(dst[at:], b[:w])
	return dst
}

// Decode decodes one item from buf, returning the item and the number of
// bytes consumed.
func Decode(buf []byte) (Item, int, error) {
	if len(buf) == 0 {
		return nil, 0, fmt.Errorf("item: decode on empty buffer")
	}
	tag := buf[0]
	switch tag {
	case tagNull:
		return Null{}, 1, nil
	case tagFalse:
		return Bool(false), 1, nil
	case tagTrue:
		return Bool(true), 1, nil
	case tagNumber:
		if len(buf) < 9 {
			return nil, 0, fmt.Errorf("item: truncated number")
		}
		bits := binary.LittleEndian.Uint64(buf[1:9])
		return Number(math.Float64frombits(bits)), 9, nil
	case tagString:
		n, w := binary.Uvarint(buf[1:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("item: bad string length")
		}
		start := 1 + w
		end := start + int(n)
		if end > len(buf) || int(n) < 0 {
			return nil, 0, fmt.Errorf("item: truncated string")
		}
		return String(buf[start:end]), end, nil
	case tagArray:
		n, w := binary.Uvarint(buf[1:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("item: bad array count")
		}
		pos := 1 + w
		arr := make(Array, 0, n)
		for i := uint64(0); i < n; i++ {
			it, used, err := Decode(buf[pos:])
			if err != nil {
				return nil, 0, err
			}
			arr = append(arr, it)
			pos += used
		}
		return arr, pos, nil
	case tagObject:
		n, w := binary.Uvarint(buf[1:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("item: bad object count")
		}
		pos := 1 + w
		keys := make([]string, 0, n)
		vals := make([]Item, 0, n)
		for i := uint64(0); i < n; i++ {
			kl, kw := binary.Uvarint(buf[pos:])
			if kw <= 0 {
				return nil, 0, fmt.Errorf("item: bad object key length")
			}
			pos += kw
			if pos+int(kl) > len(buf) {
				return nil, 0, fmt.Errorf("item: truncated object key")
			}
			keys = append(keys, string(buf[pos:pos+int(kl)]))
			pos += int(kl)
			it, used, err := Decode(buf[pos:])
			if err != nil {
				return nil, 0, err
			}
			vals = append(vals, it)
			pos += used
		}
		return &Object{keys: keys, vals: vals}, pos, nil
	case tagDateTime:
		d, n, err := decodeDateTime(buf)
		if err != nil {
			return nil, 0, err
		}
		return d, n, nil
	default:
		return nil, 0, fmt.Errorf("item: unknown tag 0x%02x", tag)
	}
}

// decodeDateTime decodes the dateTime item at buf[0:] (its tag included).
func decodeDateTime(buf []byte) (DateTime, int, error) {
	y, w := binary.Uvarint(buf[1:])
	if w <= 0 {
		return DateTime{}, 0, fmt.Errorf("item: bad dateTime year")
	}
	pos := 1 + w
	if pos+5 > len(buf) {
		return DateTime{}, 0, fmt.Errorf("item: truncated dateTime")
	}
	d := DateTime{
		Year:   int(y),
		Month:  int(buf[pos]),
		Day:    int(buf[pos+1]),
		Hour:   int(buf[pos+2]),
		Minute: int(buf[pos+3]),
		Second: int(buf[pos+4]),
	}
	return d, pos + 5, nil
}

// EncodeSeq appends the binary encoding of a sequence to dst.
func EncodeSeq(dst []byte, s Sequence) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, it := range s {
		dst = Encode(dst, it)
	}
	return dst
}

// DecodeSeq decodes a full sequence from buf. The whole buffer must be
// consumed; trailing bytes are an error.
func DecodeSeq(buf []byte) (Sequence, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, fmt.Errorf("item: bad sequence count")
	}
	pos := w
	if n == 0 {
		if pos != len(buf) {
			return nil, fmt.Errorf("item: %d trailing bytes after sequence", len(buf)-pos)
		}
		return nil, nil
	}
	s := make(Sequence, 0, n)
	for i := uint64(0); i < n; i++ {
		it, used, err := Decode(buf[pos:])
		if err != nil {
			return nil, err
		}
		s = append(s, it)
		pos += used
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("item: %d trailing bytes after sequence", len(buf)-pos)
	}
	return s, nil
}
