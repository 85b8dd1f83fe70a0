package hyracks

import (
	"fmt"
	"strings"
	"testing"

	"vxq/internal/index"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// splitIndexStub implements runtime.IndexLookup + runtime.SplitLookup over a
// map of in-memory documents: no range pruning, splits computed on demand by
// the structural boundary scanner at a configurable grain. It stands in for
// a zone-map registry so morsel tests can force split-aligned cutting at
// grains far finer than index.DefaultSplitGrain.
type splitIndexStub struct {
	docs  map[string][]byte // keyed by full file path, e.g. "/sensors/a.json"
	grain int64
}

func (s *splitIndexStub) FileRange(string, jsonparse.Path, string) (runtime.FileRange, bool) {
	return runtime.FileRange{}, false
}

func (s *splitIndexStub) FileSplits(_ string, file string) ([]int64, bool) {
	b, ok := s.docs[file]
	if !ok {
		return nil, false
	}
	bs := jsonparse.NewBoundaryScanner(s.grain)
	bs.Write(b)
	bs.Close()
	sp := bs.Splits()
	return sp, len(sp) > 0
}

func stubFor(docs map[string][]byte, grain int64) *splitIndexStub {
	full := make(map[string][]byte, len(docs))
	for name, b := range docs {
		full["/sensors/"+name] = b
	}
	return &splitIndexStub{docs: full, grain: grain}
}

// TestAppendAlignedMorsels pins the cutter: boundaries snap forward to the
// first split at or after each nominal cut, degenerate cuts merge, the last
// morsel always ends at the file size, and every non-first morsel is aligned.
func TestAppendAlignedMorsels(t *testing.T) {
	cases := []struct {
		name       string
		size, ms   int64
		splits     []int64
		wantStarts []int64
	}{
		{"snap-forward", 100, 30, []int64{35, 70, 90}, []int64{0, 35, 70, 90}},
		// A split before the nominal cut is skipped (b <= prev guard after
		// the previous snap overshot past the next nominal cut).
		{"overshoot-merges", 100, 10, []int64{45, 95}, []int64{0, 45, 95}},
		// No split at or after the cut: tail merges into the last morsel.
		{"tail-merge", 100, 40, []int64{45}, []int64{0, 45}},
		// Split exactly at the file size is not a cut (empty morsel).
		{"split-at-size", 100, 50, []int64{50, 100}, []int64{0, 50}},
		{"all-before-first-cut", 100, 60, []int64{5, 10}, []int64{0}},
	}
	for _, tc := range cases {
		got := appendAlignedMorsels(nil, "f", tc.size, tc.ms, tc.splits)
		if len(got) != len(tc.wantStarts) {
			t.Errorf("%s: %d morsels, want %d (%+v)", tc.name, len(got), len(tc.wantStarts), got)
			continue
		}
		for i, m := range got {
			if m.start != tc.wantStarts[i] {
				t.Errorf("%s: morsel %d start = %d, want %d", tc.name, i, m.start, tc.wantStarts[i])
			}
			wantEnd := tc.size
			if i+1 < len(got) {
				wantEnd = got[i+1].start
			}
			if m.end != wantEnd {
				t.Errorf("%s: morsel %d end = %d, want %d (must tile the file)", tc.name, i, m.end, wantEnd)
			}
			if m.first != (i == 0) || m.aligned != (i != 0) {
				t.Errorf("%s: morsel %d first=%v aligned=%v", tc.name, i, m.first, m.aligned)
			}
		}
	}
}

// TestMorselAlignedEquivalence re-runs the morsel equivalence property with a
// split index present, so every interior boundary is a known record start and
// the consumer opens morsels without the probe-byte re-alignment. The result
// set must match the whole-file reference exactly (exactly-once ownership) at
// grains both finer and coarser than the morsel size.
func TestMorselAlignedEquivalence(t *testing.T) {
	docs := map[string][]byte{
		"many.json":    ndSensorFile(200, 100),
		"bigrec.json":  ndSensorFile(12, 3000),
		"oneline.json": bigSensorFile(8 << 10), // no newlines: split index has no entries
		"tiny.json":    ndSensorFile(2, 0),
	}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	want := referenceItems(t, docs, measurementsPath())
	for _, grain := range []int64{0, 256, 4 << 10} {
		idx := stubFor(docs, grain)
		for _, ms := range []int64{1 << 10, 4 << 10} {
			for _, parts := range []int{1, 3} {
				env := func() *Env { return &Env{Source: src, MorselSize: ms, Indexes: idx} }
				got := resultItems(runBoth(t, scanJob(parts, measurementsPath()), env))
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

// escapedNewlineFile builds newline-delimited records whose note strings are
// dense with two-character escape sequences — \n, \", \\ — so that morsel
// boundaries and 64-byte block boundaries land inside escapes and between a
// backslash and its escaped character. A raw 0x0A never occurs inside a JSON
// string (it must be escaped), so the only newline bytes are the record
// separators; the scanner must not mistake the 'n' of a \n escape — or a
// quote preceded by an even run of backslashes — for structure.
func escapedNewlineFile(records int) []byte {
	var sb strings.Builder
	esc := strings.Repeat(`line\n`, 20) + strings.Repeat(`\\`, 31) + `\"quoted\"` + strings.Repeat(`\\n`, 13)
	for i := 0; i < records; i++ {
		fmt.Fprintf(&sb,
			`{"root":[{"metadata":{"count":1},"results":[{"date":"2013-12-%02dT00:00","dataType":"TMIN","station":"E%06d","value":%d,"note":"%s"}]}]}`+"\n",
			1+i%28, i, i%40, esc[i%7:]) // vary phase so escapes shift against block boundaries
	}
	return []byte(sb.String())
}

// TestMorselEscapedNewlineSpansBoundary is the string-spanning case: records
// full of escaped newlines (backslash + 'n' — the only legal way to put a
// newline in a JSON string) cut by morsel boundaries mid-string and
// mid-escape. Both the probing path (no index) and the aligned path (split
// index) must deliver every record exactly once.
func TestMorselEscapedNewlineSpansBoundary(t *testing.T) {
	docs := map[string][]byte{"escaped.json": escapedNewlineFile(60)}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	want := referenceItems(t, docs, measurementsPath())
	if len(want) != 60 {
		t.Fatalf("reference = %d items, want 60", len(want))
	}
	for _, idx := range []runtime.IndexLookup{nil, stubFor(docs, 0), stubFor(docs, 128)} {
		for _, ms := range []int64{128, 256, 512, 1 << 10} {
			for _, parts := range []int{1, 3} {
				env := func() *Env { return &Env{Source: src, MorselSize: ms, Indexes: idx} }
				got := resultItems(runBoth(t, scanJob(parts, measurementsPath()), env))
				if len(got) != len(want) {
					t.Fatalf("idx=%v morsel=%d parts=%d: %d items, want %d (record dropped or duplicated)",
						idx != nil, ms, parts, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("idx=%v morsel=%d parts=%d: item %d differs", idx != nil, ms, parts, i)
					}
				}
			}
		}
	}
}

// TestMorselAlignedViaZoneMapRegistry exercises the production wiring: a zone
// map built over the collection carries split offsets as a byproduct, the
// registry serves them through runtime.SplitLookup, and buildMorselQueue cuts
// on them — every interior boundary of a split file is one of the recorded
// record starts, and the scan result still matches the reference.
func TestMorselAlignedViaZoneMapRegistry(t *testing.T) {
	docs := map[string][]byte{"big.json": ndSensorFile(300, 100)} // ~68 KiB
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	valuePath := measurementsPath().Append(jsonparse.KeyStep("value"))
	zm, err := index.Build(src, "/sensors", valuePath)
	if err != nil {
		t.Fatal(err)
	}
	file := "/sensors/big.json"
	splits := zm.Splits[file]
	if len(splits) == 0 {
		t.Fatal("zone-map build recorded no splits for a newline-delimited file")
	}
	reg := index.NewRegistry()
	reg.Add(zm)
	if got, ok := reg.FileSplits("/sensors", file); !ok || len(got) != len(splits) {
		t.Fatalf("registry FileSplits = %d offsets, ok=%v; want %d", len(got), ok, len(splits))
	}

	const ms = 8 << 10
	q, _, err := buildMorselQueue(src, ScanSource{Collection: "/sensors", Project: measurementsPath()},
		reg, 1, morselOptions{morselSize: ms}, true)
	if err != nil {
		t.Fatal(err)
	}
	onSplit := map[int64]bool{}
	for _, s := range splits {
		onSplit[s] = true
	}
	var aligned int
	for {
		m, _, ok := q.take(0)
		if !ok {
			break
		}
		if m.first {
			continue
		}
		if !m.aligned {
			t.Fatalf("interior morsel [%d:%d) not aligned despite split index", m.start, m.end)
		}
		if !onSplit[m.start] {
			t.Fatalf("aligned morsel start %d is not a recorded record start", m.start)
		}
		aligned++
	}
	if aligned == 0 {
		t.Fatal("file was not split into aligned morsels")
	}

	want := referenceItems(t, docs, measurementsPath())
	env := func() *Env { return &Env{Source: src, MorselSize: ms, Indexes: reg} }
	got := resultItems(runBoth(t, scanJob(3, measurementsPath()), env))
	if len(got) != len(want) {
		t.Fatalf("%d items, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d = %s, want %s", i, got[i], want[i])
		}
	}
}
