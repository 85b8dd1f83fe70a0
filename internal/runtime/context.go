// Package runtime implements the expression runtime of the query engine:
// scalar function implementations (the JSONiq value / keys-or-members
// navigation, date-time functions, comparisons, arithmetic), aggregate
// functions (sequence, count, sum, avg, with local/global variants for
// two-step aggregation), and the evaluator tree that physical operators
// execute against tuples.
package runtime

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
)

// Source resolves collection names to data files. It abstracts the
// per-node "directory of JSON files" layout of the paper (§4.2): each node
// stores a set of JSON files under the directory named by the collection
// expression.
type Source interface {
	// Files returns the file paths belonging to a collection, in a stable
	// order.
	Files(collection string) ([]string, error)
	// Open returns a reader over one file's bytes. It is the primary read
	// path: scans stream documents through it chunk by chunk, so peak
	// memory stays O(chunk), not O(file).
	Open(path string) (io.ReadCloser, error)
	// OpenRange returns a reader positioned at offset bytes into the file,
	// so a morsel-driven scan can start mid-file without re-reading the
	// prefix.
	OpenRange(path string, offset int64) (io.ReadCloser, error)
	// Size reports a file's size in bytes without reading it, used to split
	// files into morsels up front.
	Size(path string) (int64, error)
	// Ident reports a file's durable identity. ok=false means the file has
	// no identity stable across processes (e.g. in-memory documents), so
	// persistent caches must not cover it.
	Ident(path string) (FileIdent, bool)
}

// SidecarSuffix is the file-name suffix of persistent zone-index sidecars
// (vxq/internal/index). It lives here so DirSource can exclude
// sidecars from collection listings without importing the index package:
// a sidecar sits next to its data file but is never itself a record file.
const SidecarSuffix = ".vxqx"

// FileIdent is the durable identity of a file that the zone index
// (index.Registry and its sidecars) validates against: its size and mtime,
// the device and inode it lives on, and its ctime. Two observations with
// equal idents are treated as the same bytes, provided WitnessesChange
// holds. The mtime alone does not witness change: a same-size rewrite whose
// old mtime is put back (os.Chtimes, a restoring copy) keeps it, but the
// ctime, which no caller can set, moves on every write, and a file replaced
// by rename gets a new inode.
type FileIdent struct {
	Size         int64
	ModTimeNanos int64
	Dev, Ino     uint64
	CtimeNanos   int64
}

// WitnessesChange reports whether equal identities can be trusted to mean
// unchanged bytes. It is false only when both the mtime and the ctime are
// whole seconds (zero included): a filesystem without sub-second timestamps,
// where a same-size rewrite within one second keeps the whole identity. A
// whole-second mtime alone is no sign of that — tar and cp -p restore such
// mtimes on nanosecond filesystems, whose ctime still moves on each write.
func (id FileIdent) WitnessesChange() bool {
	return id.ModTimeNanos%1e9 != 0 || id.CtimeNanos%1e9 != 0
}

// CountingReader wraps an io.Reader and counts the bytes delivered, so
// streaming consumers can report Stats.BytesRead without buffering.
type CountingReader struct {
	R io.Reader
	N int64
}

// Read implements io.Reader.
func (c *CountingReader) Read(p []byte) (int, error) {
	n, err := c.R.Read(p)
	c.N += int64(n)
	return n, err
}

// DirSource is a Source that maps collection names to directories on the
// local filesystem.
type DirSource struct {
	// Mounts maps collection names (e.g. "/sensors") to directories.
	Mounts map[string]string
}

// Files lists the regular files of the mounted directory in sorted order.
func (s *DirSource) Files(collection string) ([]string, error) {
	dir, ok := s.Mounts[collection]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown collection %q", collection)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("runtime: collection %q: %w", collection, err)
	}
	var files []string
	for _, e := range entries {
		if e.Type().IsRegular() && !strings.HasSuffix(e.Name(), SidecarSuffix) {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	return files, nil
}

// Open opens one file on disk for streaming reads.
func (s *DirSource) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

// OpenRange opens one file on disk positioned at a byte offset.
func (s *DirSource) OpenRange(path string, offset int64) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Size reports one file's size in bytes.
func (s *DirSource) Size(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Ident reports a file's durable identity from the filesystem. On a
// platform whose stat does not report device, inode and ctime (statIdent),
// ok is false: no sidecar covers the file, and only the engine that built
// its zones prunes on them, until a re-mount (see statIdent there).
func (s *DirSource) Ident(path string) (FileIdent, bool) {
	fi, err := os.Stat(path)
	if err != nil {
		return FileIdent{}, false
	}
	return statIdent(fi)
}

// MemSource is an in-memory Source, used by tests.
type MemSource struct {
	// Collections maps collection names to named documents.
	Collections map[string]map[string][]byte
}

// Files lists the document names of a collection in sorted order.
func (s *MemSource) Files(collection string) ([]string, error) {
	docs, ok := s.Collections[collection]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown collection %q", collection)
	}
	names := make([]string, 0, len(docs))
	for n := range docs {
		names = append(names, collection+"/"+n)
	}
	sort.Strings(names)
	return names, nil
}

// Open returns a reader over a stored document.
func (s *MemSource) Open(path string) (io.ReadCloser, error) {
	return s.OpenRange(path, 0)
}

// OpenRange returns a reader over a stored document starting at a byte
// offset.
func (s *MemSource) OpenRange(path string, offset int64) (io.ReadCloser, error) {
	b, ok := s.lookup(path)
	if !ok {
		return nil, fmt.Errorf("runtime: no such document %q", path)
	}
	if offset > int64(len(b)) {
		offset = int64(len(b))
	}
	return io.NopCloser(bytes.NewReader(b[offset:])), nil
}

// Size reports a stored document's length.
func (s *MemSource) Size(path string) (int64, error) {
	b, ok := s.lookup(path)
	if !ok {
		return 0, fmt.Errorf("runtime: no such document %q", path)
	}
	return int64(len(b)), nil
}

func (s *MemSource) lookup(path string) ([]byte, bool) {
	for coll, docs := range s.Collections {
		prefix := coll + "/"
		if len(path) > len(prefix) && path[:len(prefix)] == prefix {
			if b, ok := docs[path[len(prefix):]]; ok {
				return b, true
			}
		}
	}
	return nil, false
}

// Ident reports ok=false: in-memory documents have no identity that survives
// the process, so persistent caches must not cover them.
func (s *MemSource) Ident(path string) (FileIdent, bool) { return FileIdent{}, false }

// Stats accumulates per-partition execution statistics.
//
// Concurrency contract: a Stats instance has exactly one writer. Each task
// (fragment-partition) increments its own instance while it runs, and the
// executor folds the per-task instances into the job total with Add exactly
// once, after every task has finished. Counters are plain int64s on purpose —
// no atomics, no locks — so sharing an instance between running tasks is a
// data race (caught by the -race executor tests).
type Stats struct {
	BytesRead       int64
	FilesRead       int64
	FilesSkipped    int64 // files pruned by a zone-map index
	MorselsSkipped  int64 // morsels pruned by per-zone min/max stats
	ColdIndexBuilds int64 // always 0: no scan runs a boundary pass; kept for the benchmark module
	TuplesProduced  int64
	TuplesShuffled  int64
	BytesShuffled   int64
	SpilledBytes    int64 // encoded tuple bytes written to spill files
	SpillPartitions int64 // spill partition/run files created
	SpillWaves      int64 // table flushes (group-by, join) and sorted runs (sort)
}

// Add merges other into s.
func (s *Stats) Add(other *Stats) {
	s.BytesRead += other.BytesRead
	s.FilesRead += other.FilesRead
	s.FilesSkipped += other.FilesSkipped
	s.MorselsSkipped += other.MorselsSkipped
	s.TuplesProduced += other.TuplesProduced
	s.TuplesShuffled += other.TuplesShuffled
	s.BytesShuffled += other.BytesShuffled
	s.SpilledBytes += other.SpilledBytes
	s.SpillPartitions += other.SpillPartitions
	s.SpillWaves += other.SpillWaves
}

// FileRange is the indexed value range of one zone, as reported by a
// zone-map index (vxq/internal/index).
type FileRange struct {
	Min, Max item.Item // nil when the zone has no values at the path
	Count    int64
}

// Zone is one byte-range zone of a file's zone-map index: Range summarizes
// the indexed-path values of exactly the records whose line start lies in
// [Start, End). Line starts are the same anchor morsel ownership uses, so a
// morsel [ms, me) can be skipped when every zone overlapping it excludes the
// predicate — any record the morsel owns has its line start, and therefore
// its zone, inside [ms, me).
type Zone struct {
	Start, End int64
	Range      FileRange
}

// IndexLookup reports the per-zone min/max stats of one file at an indexed
// path. Zones are ascending, non-overlapping and cover [0, fileSize) — a
// record with no value at the path still lands in a zone, whose Count
// simply doesn't include it, and an empty file has one empty zone. A file's
// value range is the fold of its zones. A miss (or a nil lookup) disables
// pruning for the file; correctness never depends on it.
type IndexLookup interface {
	FileZones(collection string, path jsonparse.Path, file string) ([]Zone, bool)
}

// Ctx is the per-task evaluation context shared by the operators of one
// partition pipeline.
type Ctx struct {
	Source     Source
	Accountant *frame.Accountant
	Stats      *Stats
	// Indexes provides zone-map lookups for DATASCAN file and morsel
	// pruning (may be nil).
	Indexes IndexLookup

	// argScratch is a stack of recycled argument slices for CallEval, so
	// nested calls evaluated tuple after tuple never re-allocate their
	// argument arrays. A Ctx is confined to one partition pipeline, so the
	// stack needs no locking.
	argScratch [][]item.Sequence
	// encStack holds the encoded operands of encoded evaluators, one reused
	// buffer per nesting depth (see operand); encDepth is the next free one.
	encStack [][]byte
	encDepth int
}

// borrowArgs pops (or allocates) an argument slice of length n. Safe on a
// nil context, which simply allocates.
func (c *Ctx) borrowArgs(n int) []item.Sequence {
	if c == nil || len(c.argScratch) == 0 {
		return make([]item.Sequence, n)
	}
	s := c.argScratch[len(c.argScratch)-1]
	c.argScratch = c.argScratch[:len(c.argScratch)-1]
	if cap(s) < n {
		return make([]item.Sequence, n)
	}
	return s[:n]
}

// returnArgs clears a borrowed slice and pushes it back for reuse.
func (c *Ctx) returnArgs(s []item.Sequence) {
	if c == nil || s == nil {
		return
	}
	for i := range s {
		s[i] = nil
	}
	c.argScratch = append(c.argScratch, s)
}

// NewCtx builds a context with sane defaults.
func NewCtx(src Source) *Ctx {
	return &Ctx{
		Source:     src,
		Accountant: frame.NewAccountant(0),
		Stats:      &Stats{},
	}
}
