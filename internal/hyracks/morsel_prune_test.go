package hyracks

import (
	"strings"
	"testing"

	"vxq/internal/index"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// clusteredValueFile builds a newline-delimited file whose "value" field is
// the record index — monotonically increasing, so per-zone min/max stats are
// tight and a narrow value predicate maps to a narrow byte range.
func clusteredValueFile(records, padBytes int) []byte {
	var sb strings.Builder
	pad := strings.Repeat("x", padBytes)
	for i := 0; i < records; i++ {
		sb.WriteString(`{"root":[{"results":[{"date":"2013-12-01T00:00","value":`)
		sb.WriteString(itoa(i))
		sb.WriteString(`,"pad":"`)
		sb.WriteString(pad)
		sb.WriteString(`"}]}]}` + "\n")
	}
	return []byte(sb.String())
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// zoneFilter builds a [lo, hi] range filter on the value path.
func zoneFilter(lo, hi int) *ScanFilter {
	return &ScanFilter{
		Path: measurementsPath().Append(jsonparse.KeyStep("value")),
		Lo:   item.Number(lo),
		Hi:   item.Number(hi),
	}
}

// pruneFixture builds a clustered-value collection, its zone-map registry
// (fine zones), and the list of files.
func pruneFixture(t *testing.T) (*runtime.MemSource, *index.Registry) {
	t.Helper()
	docs := map[string][]byte{"clustered.json": clusteredValueFile(400, 120)} // ~73 KiB
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	zms, err := index.BuildWith(src, "/sensors",
		[]jsonparse.Path{measurementsPath().Append(jsonparse.KeyStep("value"))}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	reg := index.NewRegistry(src.Ident)
	reg.Add(zms[0])
	return src, reg
}

// TestMorselZonePruning: with per-zone stats on record, a narrow range
// predicate must prune most of a clustered file's morsels — and the surviving
// morsels must still own every matching record (pruning is sound: the scan's
// filtered output equals the reference's).
func TestMorselZonePruning(t *testing.T) {
	src, reg := pruneFixture(t)
	scan := ScanSource{
		Collection: "/sensors",
		Project:    measurementsPath(),
		Filter:     zoneFilter(100, 110),
	}

	q, qs, err := buildMorselQueue(src, scan, reg, 1, 4<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if qs.morselsSkipped == 0 {
		t.Fatalf("no morsels pruned for an 11/400-record predicate on a clustered file (stats %+v, %d morsels)",
			qs, len(q.morsels))
	}
	if qs.filesSkipped != 0 {
		t.Fatalf("file-level prune fired (%+v): the file's range does overlap the predicate", qs)
	}
	if q.skipped != qs.morselsSkipped {
		t.Fatalf("queue.skipped = %d, stats say %d", q.skipped, qs.morselsSkipped)
	}
	if len(q.morsels) == 0 {
		t.Fatal("every morsel pruned: the matching records' morsel must survive")
	}
	// Exactly one surviving morsel per file carries the FilesRead duty.
	counting := 0
	for _, m := range q.morsels {
		if m.countsFile {
			counting++
		}
	}
	if counting != 1 {
		t.Fatalf("%d morsels count the file, want exactly 1", counting)
	}

	// Soundness, end to end on both executors: every record the predicate
	// matches must come out of the pruned scan.
	job := &Job{Fragments: []*Fragment{{
		ID:           0,
		Source:       scan,
		Partitions:   2,
		SinkExchange: -1,
	}}}
	envf := func() *Env {
		return &Env{Source: src, Indexes: reg, MorselSize: 4 << 10}
	}
	for _, staged := range []bool{false, true} {
		var res *Result
		var err error
		if staged {
			res, err = RunStaged(job, envf())
		} else {
			res, err = RunPipelined(job, envf())
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.MorselsSkipped == 0 {
			t.Errorf("staged=%v: Stats.MorselsSkipped = 0, queue build said %d", staged, qs.morselsSkipped)
		}
		if res.Stats.FilesRead != 1 {
			t.Errorf("staged=%v: FilesRead = %d, want 1 (counting morsel must survive pruning)",
				staged, res.Stats.FilesRead)
		}
		matches := map[int]bool{}
		for _, row := range res.Rows {
			rec := row[0][0]
			for _, v := range jsonparse.ApplyPath(rec, jsonparse.Path{jsonparse.KeyStep("value")}) {
				n := int(v.(item.Number))
				if n >= 100 && n <= 110 {
					matches[n] = true
				}
			}
		}
		for v := 100; v <= 110; v++ {
			if !matches[v] {
				t.Errorf("staged=%v: matching record value=%d lost to pruning", staged, v)
			}
		}
	}
}

// TestMorselPruningFirstMorselDropped: a predicate matching only the tail of
// the file prunes the first morsel; FilesRead accounting must follow the
// earliest survivor.
func TestMorselPruningFirstMorselDropped(t *testing.T) {
	src, reg := pruneFixture(t)
	scan := ScanSource{
		Collection: "/sensors",
		Project:    measurementsPath(),
		Filter:     zoneFilter(390, 399), // the last few records only
	}
	q, qs, err := buildMorselQueue(src, scan, reg, 1, 4<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if qs.morselsSkipped == 0 || len(q.morsels) == 0 {
		t.Fatalf("stats %+v, %d morsels", qs, len(q.morsels))
	}
	for _, m := range q.morsels {
		if m.first {
			t.Fatalf("first morsel [%d:%d) survived a tail-only predicate", m.start, m.end)
		}
	}
	if !q.morsels[0].countsFile {
		t.Fatal("FilesRead duty did not transfer to the earliest survivor")
	}
}

// TestMorselPruningUnknownIsKept: morsels outside zone coverage — or with no
// zones at all — are never pruned.
func TestMorselPruningUnknownIsKept(t *testing.T) {
	f := zoneFilter(1000, 2000) // matches nothing below
	zones := []runtime.Zone{
		{Start: 0, End: 1024, Range: runtime.FileRange{Min: item.Number(0), Max: item.Number(10), Count: 5}},
		// gap [1024, 2048): unknown
		{Start: 2048, End: 4096, Range: runtime.FileRange{Min: item.Number(20), Max: item.Number(30), Count: 5}},
	}
	if morselAdmitted(morsel{start: 0, end: 1024}, zones, f) {
		t.Error("fully covered, fully excluded morsel must be pruned")
	}
	if !morselAdmitted(morsel{start: 512, end: 1536}, zones, f) {
		t.Error("morsel reaching into a coverage gap must be kept")
	}
	if !morselAdmitted(morsel{start: 0, end: -1}, zones, f) {
		t.Error("whole-file morsel spanning a gap must be kept")
	}
	if !morselAdmitted(morsel{start: 0, end: 1024}, nil, f) {
		t.Error("no zones at all: must be kept")
	}
	// Dense coverage, everything excluded: the whole-file morsel goes.
	dense := []runtime.Zone{
		{Start: 0, End: 2048, Range: runtime.FileRange{Min: item.Number(0), Max: item.Number(10), Count: 5}},
		{Start: 2048, End: 4096, Range: runtime.FileRange{Min: item.Number(20), Max: item.Number(30), Count: 5}},
	}
	if morselAdmitted(morsel{start: 0, end: -1}, dense, f) {
		t.Error("densely covered, fully excluded whole-file morsel must be pruned")
	}
	// An empty zone (Count 0) excludes by definition: a filter-less record
	// cannot satisfy the SELECT that put the filter on the scan.
	empty := []runtime.Zone{{Start: 0, End: 4096, Range: runtime.FileRange{}}}
	if morselAdmitted(morsel{start: 0, end: -1}, empty, f) {
		t.Error("empty zone must exclude")
	}
}

// TestFileSkippedWhenNoZoneAdmits: the file-level rule is "some zone admits
// the filter". A file whose zones each exclude the filter is skipped even
// though the fold of its zones ([1, 9]) admits it; an empty file and a file
// with no value at the path are skipped; a file the index does not hold is
// scanned.
func TestFileSkippedWhenNoZoneAdmits(t *testing.T) {
	valuePath := jsonparse.Path{jsonparse.KeyStep("v")}
	row := func(v int) string { return `{"v":` + itoa(v) + `,"pad":"` + strings.Repeat("x", 100) + `"}` + "\n" }
	indexed := map[string][]byte{
		"gap.json":     []byte(strings.Repeat(row(1), 10) + strings.Repeat(row(9), 10)),
		"empty.json":   nil,
		"novalue.json": []byte(`{"w":5}` + "\n"),
		"match.json":   []byte(row(5)),
	}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/c": indexed}}
	// One record per zone, so no zone holds both a 1 and a 9.
	zms, err := index.BuildWith(src, "/c", []jsonparse.Path{valuePath}, int64(len(row(1))))
	if err != nil {
		t.Fatal(err)
	}
	reg := index.NewRegistry(src.Ident)
	reg.Add(zms[0])
	indexed["late.json"] = []byte(row(1)) // added after the build: unknown to the index

	scan := ScanSource{Collection: "/c", Filter: &ScanFilter{Path: valuePath, Lo: item.Number(4), Hi: item.Number(6)}}
	q, qs, err := buildMorselQueue(src, scan, reg, 1, 1<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if qs.filesSkipped != 3 {
		t.Errorf("files skipped = %d, want 3 (gap, empty, novalue)", qs.filesSkipped)
	}
	var scanned []string
	for _, m := range q.morsels {
		if m.countsFile {
			scanned = append(scanned, m.file)
		}
	}
	if got := strings.Join(scanned, " "); got != "/c/late.json /c/match.json" {
		t.Errorf("scanned files = %q, want the unindexed and the matching one", got)
	}
}

// TestMorselAlignedEquivalence re-runs the morsel equivalence property with a
// zone-map registry present and a filter that admits every record, so the
// queue consults each file's zones at grains finer than, equal to and coarser
// than the morsel size. Whatever the index holds, morsels stay nominal cuts
// that the newline probe re-aligns to record starts; only a morsel whose
// zones hold no record start may be dropped, and the result set must match
// the whole-file reference exactly (exactly-once ownership).
func TestMorselAlignedEquivalence(t *testing.T) {
	docs := map[string][]byte{
		"many.json":    ndSensorFile(200, 100),
		"bigrec.json":  ndSensorFile(12, 3000),
		"oneline.json": bigSensorFile(8 << 10), // no newlines: one record, one zone
		"tiny.json":    ndSensorFile(2, 0),
	}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	want := referenceItems(t, docs, measurementsPath())
	valuePath := measurementsPath().Append(jsonparse.KeyStep("value"))
	for _, grain := range []int64{256, 1 << 10, 4 << 10} {
		zms, err := index.BuildWith(src, "/sensors", []jsonparse.Path{valuePath}, grain)
		if err != nil {
			t.Fatal(err)
		}
		reg := index.NewRegistry(src.Ident)
		reg.Add(zms[0])
		for _, ms := range []int64{1 << 10, 4 << 10} {
			for _, parts := range []int{1, 3} {
				job := &Job{Fragments: []*Fragment{{
					ID: 0,
					Source: ScanSource{Collection: "/sensors", Project: measurementsPath(),
						Filter: zoneFilter(-1, 1000)},
					Partitions:   parts,
					SinkExchange: -1,
				}}}
				env := func() *Env { return &Env{Source: src, MorselSize: ms, Indexes: reg} }
				got := resultItems(runBoth(t, job, env))
				if len(got) != len(want) {
					t.Fatalf("grain=%d morsel=%d parts=%d: %d items, want %d",
						grain, ms, parts, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("grain=%d morsel=%d parts=%d: item %d = %s, want %s",
							grain, ms, parts, i, got[i], want[i])
					}
				}
			}
		}
	}
}
