package hyracks

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"vxq/internal/runtime"
)

// DefaultMorselSize is the default byte-range granularity of morsel-driven
// scans: files larger than this are split into independently schedulable
// byte ranges, so one oversized file no longer serializes onto a single
// partition (the skew problem of static file striding).
const DefaultMorselSize int64 = 4 << 20

// morsel is one unit of scan work: a byte range of one file. A record whose
// line start (the offset just past the '\n' preceding it, or offset 0)
// lies inside [start, end) belongs to this morsel, even when its tail
// extends past end — the record-alignment rule borrowed from Hadoop's line
// reader, valid because a raw '\n' never occurs inside a JSON string
// (control characters must be escaped), so newline-delimited values can be
// re-aligned from any offset. Anchoring ownership at the line start (not
// the record's first non-whitespace byte) keeps producer and consumer
// consistent when whitespace follows the separating newline, and means a
// final record without a trailing newline is owned by exactly the morsel
// its line begins in, no matter how many morsel boundaries it straddles.
type morsel struct {
	file  string
	start int64
	end   int64 // exclusive ownership limit; -1 = the whole rest of the file
	first bool  // first morsel of its file (no alignment skip)
	// countsFile marks the one morsel of its file that increments
	// Stats.FilesRead. It starts out on the first morsel but moves to the
	// earliest survivor when zone pruning drops the first — first itself
	// cannot move, because it also encodes "no alignment skip at start 0".
	countsFile bool
}

// wholeFile reports whether the morsel covers its file entirely.
func (m morsel) wholeFile() bool { return m.start == 0 && m.end < 0 }

// wrap attaches the failing location to a scan error: the file path for a
// whole-file morsel, the file path plus the byte range for a split one.
func (m morsel) wrap(err error) error {
	if m.wholeFile() {
		return fmt.Errorf("%s: %w", m.file, err)
	}
	return fmt.Errorf("%s[%d:%d): %w", m.file, m.start, m.end, err)
}

// morselQueue is the per-scan-fragment work queue. In shared mode (the
// pipelined scheduler) every task drains one atomic cursor, which is
// work-stealing in effect: a task that finishes its morsel takes the next
// available one, so fast partitions absorb the tail of a skewed file set.
// In static mode (the staged scheduler, which runs tasks sequentially to
// measure clean per-task times) morsels are dealt round-robin by index, so
// each task's workload — and therefore its measured time — is deterministic.
type morselQueue struct {
	morsels []morsel
	shared  bool
	parts   int
	cursor  atomic.Int64
	local   []int // static mode: per-partition count of morsels already taken
	// skipped is the number of morsels the queue build pruned via per-zone
	// stats — set once at build time, surfaced by the profiler.
	skipped int64
}

func newMorselQueue(morsels []morsel, partitions int, shared bool) *morselQueue {
	if partitions <= 0 {
		partitions = 1
	}
	return &morselQueue{
		morsels: morsels,
		shared:  shared,
		parts:   partitions,
		local:   make([]int, partitions),
	}
}

// take returns the next morsel for the given partition, or ok=false when the
// partition's work is exhausted. Safe for concurrent use in shared mode.
// stolen reports whether the morsel would have been dealt to a different
// partition under the static round-robin deal — the work-stealing signal the
// profiler surfaces per scan task.
func (q *morselQueue) take(partition int) (m morsel, stolen, ok bool) {
	if q.shared {
		i := q.cursor.Add(1) - 1
		if i >= int64(len(q.morsels)) {
			return morsel{}, false, false
		}
		return q.morsels[i], int(i%int64(q.parts)) != partition, true
	}
	if partition < 0 || partition >= q.parts {
		return morsel{}, false, false
	}
	i := q.local[partition]*q.parts + partition
	if i >= len(q.morsels) {
		return morsel{}, false, false
	}
	q.local[partition]++
	return q.morsels[i], false, true
}

// queueStats counts the pruning work of a morsel-queue build.
type queueStats struct {
	filesSkipped   int64 // files no zone of which admits the filter
	morselsSkipped int64 // morsels pruned by per-zone min/max stats
}

func (q *queueStats) add(other queueStats) {
	q.filesSkipped += other.filesSkipped
	q.morselsSkipped += other.morselsSkipped
}

// buildMorselQueue lists a scan's files and cuts each into morsels every
// morselSize bytes; a file no larger than that is one whole-file morsel.
// Cuts are nominal, and the consumer finds each morsel's first line start
// with a one-byte probe (see scanMorsel). A scan with a filter asks the
// index once per file for the file's zones: a file none of whose zones
// admits the filter is skipped outright, and of the others the morsels
// whose every overlapping zone excludes the filter are pruned before they
// are ever scheduled. It returns the queue and the pruning counters.
func buildMorselQueue(src runtime.Source, s ScanSource, idx runtime.IndexLookup,
	partitions int, morselSize int64, shared bool) (*morselQueue, queueStats, error) {
	var qs queueStats
	if src == nil {
		return nil, qs, fmt.Errorf("hyracks: scan without a data source")
	}
	files, err := src.Files(s.Collection)
	if err != nil {
		return nil, qs, err
	}
	if morselSize <= 0 {
		morselSize = DefaultMorselSize
	}
	var morsels []morsel
	for _, file := range files {
		var zones []runtime.Zone
		if s.Filter != nil && idx != nil {
			zones, _ = idx.FileZones(s.Collection, s.Filter.Path, file)
			if zones != nil && !slices.ContainsFunc(zones, func(z runtime.Zone) bool { return s.Filter.Admits(z.Range) }) {
				qs.filesSkipped++
				continue
			}
		}
		size, err := src.Size(file)
		if err != nil {
			return nil, qs, err
		}
		base := len(morsels)
		if size <= morselSize {
			morsels = append(morsels, morsel{file: file, start: 0, end: -1, first: true, countsFile: true})
		} else {
			for off := int64(0); off < size; off += morselSize {
				morsels = append(morsels, morsel{file: file, start: off, end: min(off+morselSize, size),
					first: off == 0, countsFile: off == 0})
			}
		}
		if zones != nil {
			kept := pruneMorsels(morsels[base:], zones, s.Filter)
			qs.morselsSkipped += int64(len(morsels) - base - kept)
			morsels = morsels[:base+kept]
		}
	}
	q := newMorselQueue(morsels, partitions, shared)
	q.skipped = qs.morselsSkipped
	return q, qs, nil
}

// pruneMorsels filters one file's morsels in place against the file's
// per-zone stats, keeping a morsel when any overlapping zone admits the
// filter — or when part of its range is not covered by any zone (unknown is
// never pruned). It returns the number of morsels kept. Pruning is sound
// because zones and morsel ownership share the line-start anchor: every
// record a morsel [ms, me) owns has its line start, and therefore its zone,
// inside [ms, me), so if all zones overlapping the range exclude the
// predicate, no owned record can match. If the file's first morsel is
// pruned, its FilesRead-counting duty moves to the earliest survivor.
func pruneMorsels(ms []morsel, zones []runtime.Zone, f *ScanFilter) int {
	kept := 0
	droppedCounter := false
	for _, m := range ms {
		if morselAdmitted(m, zones, f) {
			if droppedCounter {
				m.countsFile = true
				droppedCounter = false
			}
			ms[kept] = m
			kept++
		} else if m.countsFile {
			droppedCounter = true
		}
	}
	return kept
}

// morselAdmitted reports whether a morsel's byte range can hold a matching
// record according to the per-zone stats. Zones are ascending and
// non-overlapping and by the IndexLookup contract cover [0, fileSize), so
// the last zone's End is the file size; any byte of the morsel's effective
// range the zones do not cover counts as unknown and admits the morsel.
func morselAdmitted(m morsel, zones []runtime.Zone, f *ScanFilter) bool {
	if len(zones) == 0 {
		return true
	}
	start, end := m.start, m.end
	size := zones[len(zones)-1].End
	if end < 0 || end > size {
		end = size // -1 means "the whole rest of the file"
	}
	if start >= end {
		return true // degenerate range: nothing to reason about, keep it
	}
	covered := start
	i := sort.Search(len(zones), func(i int) bool { return zones[i].End > start })
	for ; i < len(zones) && zones[i].Start < end; i++ {
		z := zones[i]
		if z.Start > covered {
			return true // gap in coverage: unknown, keep the morsel
		}
		if f.Admits(z.Range) {
			return true
		}
		if z.End > covered {
			covered = z.End
		}
	}
	return covered < end
}
