package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"vxq/internal/item"
	"vxq/internal/runtime"
)

// Sidecar persistence: the per-zone min/max stats a zone-map build computes
// for one file's indexed paths are serialized into a small versioned binary
// file next to the data file (or under a configurable cache directory), so
// later processes prune warm.
//
// Binary layout (all integers little-endian unless varint):
//
//	magic   "VXQS"               4 bytes
//	version uint32               format version; readers reject mismatches
//	size    int64                data-file size at write time
//	mtime   int64                data-file mtime (UnixNano) at write time
//	dev     uint64               device of the data file at write time
//	ino     uint64               inode of the data file at write time
//	ctime   int64                data-file ctime (UnixNano) at write time
//	npaths  uvarint              per-path zone indexes
//	per path:
//	  plen  uvarint, path bytes  jsonparse postfix path text
//	  zgrain int64               zone byte granularity
//	  nzones uvarint             dense zones covering [0, size)
//	  per zone:
//	    count uvarint            values found at the path in this zone
//	    if count > 0: min, max   length-prefixed item encodings
//	crc     uint32               IEEE CRC-32 of everything above
//
// Validation rule: a sidecar is valid for a data file iff magic and version
// match, (size, mtime, dev, ino, ctime) equal the file's current identity,
// and the CRC checks out. Any mismatch, short read, or decode error is a
// cache miss — the scan runs unpruned until the next build rewrites the
// sidecar — never a query error. Version 1 also carried record-boundary
// splits; version 2 dropped them; version 3 added dev, ino and ctime to the
// identity. A sidecar of an older version is such a miss.

// sidecarMagic identifies a vxq structural-index sidecar.
const sidecarMagic = "VXQS"

// SidecarVersion is the current sidecar format version. Bump it whenever the
// layout changes; readers treat any other version as a miss.
const SidecarVersion uint32 = 3

// Sidecar is the decoded form of one data file's persistent index.
type Sidecar struct {
	// Ident is the data file's identity at write time; loads validate it
	// against the file's current identity.
	Ident runtime.FileIdent
	// Paths carries one per-zone stats index per indexed path.
	Paths []SidecarPathZones
}

// SidecarPathZones is the per-zone min/max index of one path.
type SidecarPathZones struct {
	// Path is the jsonparse postfix rendering of the indexed path.
	Path string
	// ZoneGrain is the byte width of each zone (the last zone may be short).
	ZoneGrain int64
	// Zones are dense: zone i covers bytes [i*ZoneGrain, (i+1)*ZoneGrain)
	// of the file, and together they cover [0, fileSize).
	Zones []FileStats
}

// SidecarPathFor resolves where the sidecar of a data file lives: next to
// the file (dataFile + runtime.SidecarSuffix) by default, or under cacheDir
// with a content-addressed name when a cache directory is configured —
// useful when the data directory is read-only.
func SidecarPathFor(dataFile, cacheDir string) string {
	if cacheDir == "" {
		return dataFile + runtime.SidecarSuffix
	}
	abs, err := filepath.Abs(dataFile)
	if err != nil {
		abs = dataFile
	}
	sum := sha256.Sum256([]byte(abs))
	return filepath.Join(cacheDir, hex.EncodeToString(sum[:12])+runtime.SidecarSuffix)
}

// Encode serializes the sidecar.
func (s *Sidecar) Encode() []byte {
	b := make([]byte, 0, 256)
	b = append(b, sidecarMagic...)
	b = binary.LittleEndian.AppendUint32(b, SidecarVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Ident.Size))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Ident.ModTimeNanos))
	b = binary.LittleEndian.AppendUint64(b, s.Ident.Dev)
	b = binary.LittleEndian.AppendUint64(b, s.Ident.Ino)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Ident.CtimeNanos))
	b = binary.AppendUvarint(b, uint64(len(s.Paths)))
	for _, p := range s.Paths {
		b = binary.AppendUvarint(b, uint64(len(p.Path)))
		b = append(b, p.Path...)
		b = binary.LittleEndian.AppendUint64(b, uint64(p.ZoneGrain))
		b = binary.AppendUvarint(b, uint64(len(p.Zones)))
		for _, z := range p.Zones {
			b = binary.AppendUvarint(b, uint64(z.Count))
			if z.Count > 0 {
				b = appendItem(b, z.Min)
				b = appendItem(b, z.Max)
			}
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func appendItem(b []byte, it item.Item) []byte {
	enc := item.Encode(nil, it)
	b = binary.AppendUvarint(b, uint64(len(enc)))
	return append(b, enc...)
}

// sidecarReader decodes the sidecar layout with bounds checking; any
// malformation surfaces as an error the caller treats as a cache miss.
type sidecarReader struct {
	b   []byte
	off int
	err error
}

func (r *sidecarReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *sidecarReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("index: sidecar truncated at offset %d", r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *sidecarReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *sidecarReader) i64() int64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *sidecarReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("index: sidecar bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *sidecarReader) decItem() item.Item {
	n := int(r.uvarint())
	enc := r.bytes(n)
	if r.err != nil {
		return nil
	}
	it, used, err := item.Decode(enc)
	if err != nil || used != n {
		r.fail("index: sidecar bad item encoding at offset %d", r.off)
		return nil
	}
	return it
}

// maxSidecarElems bounds decoded element counts so a corrupt length prefix
// cannot drive a huge allocation before the CRC is even checked.
const maxSidecarElems = 1 << 26

func (r *sidecarReader) count(what string) int {
	n := r.uvarint()
	if n > maxSidecarElems {
		r.fail("index: sidecar %s count %d exceeds limit", what, n)
		return 0
	}
	return int(n)
}

// DecodeSidecar parses sidecar bytes, verifying magic, version, and CRC.
func DecodeSidecar(b []byte) (*Sidecar, error) {
	if len(b) < len(sidecarMagic)+4+4 {
		return nil, fmt.Errorf("index: sidecar too short (%d bytes)", len(b))
	}
	if string(b[:len(sidecarMagic)]) != sidecarMagic {
		return nil, fmt.Errorf("index: sidecar bad magic")
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("index: sidecar CRC mismatch")
	}
	r := &sidecarReader{b: body, off: len(sidecarMagic)}
	if v := r.u32(); r.err == nil && v != SidecarVersion {
		return nil, fmt.Errorf("index: sidecar version %d (want %d)", v, SidecarVersion)
	}
	s := &Sidecar{}
	s.Ident.Size = r.i64()
	s.Ident.ModTimeNanos = r.i64()
	s.Ident.Dev = uint64(r.i64())
	s.Ident.Ino = uint64(r.i64())
	s.Ident.CtimeNanos = r.i64()
	npaths := r.count("path")
	for i := 0; i < npaths && r.err == nil; i++ {
		var p SidecarPathZones
		p.Path = string(r.bytes(r.count("path name")))
		p.ZoneGrain = r.i64()
		nz := r.count("zone")
		if r.err != nil {
			break
		}
		p.Zones = make([]FileStats, nz)
		for j := range p.Zones {
			c := int64(r.uvarint())
			p.Zones[j].Count = c
			if c > 0 {
				p.Zones[j].Min = r.decItem()
				p.Zones[j].Max = r.decItem()
			}
			if r.err != nil {
				break
			}
		}
		s.Paths = append(s.Paths, p)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("index: sidecar has %d trailing bytes", len(body)-r.off)
	}
	return s, nil
}

// WriteSidecar atomically writes a sidecar: encode to a temp file in the
// destination directory, then rename over the final name, so concurrent
// readers only ever observe a complete sidecar or none.
func WriteSidecar(path string, s *Sidecar) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	// Deferred cleanup instead of per-branch removes: every exit that did not
	// commit the rename — present and future — removes the temp file.
	committed := false
	defer func() {
		if !committed {
			os.Remove(tmp.Name())
		}
	}()
	_, werr := tmp.Write(s.Encode())
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	committed = true
	return nil
}

// LoadSidecar reads and decodes a sidecar, validating it against the data
// file's current identity. Every failure mode — missing file, short file,
// corrupt bytes, version or identity mismatch — returns an error the caller
// treats as a cache miss.
func LoadSidecar(path string, ident runtime.FileIdent) (*Sidecar, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := DecodeSidecar(b)
	if err != nil {
		return nil, err
	}
	if s.Ident != ident {
		return nil, fmt.Errorf("index: sidecar identity mismatch (have %+v, file %+v)", s.Ident, ident)
	}
	return s, nil
}
