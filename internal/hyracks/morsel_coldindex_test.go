package hyracks

import (
	"io"
	"sync"
	"testing"

	"vxq/internal/index"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// rangeCountSource wraps a MemSource and counts OpenRange calls, so tests can
// tell whether a queue build ran the cold-scan boundary pass (which reads the
// file through range opens) or found the splits already recorded.
type rangeCountSource struct {
	*runtime.MemSource
	mu         sync.Mutex
	rangeOpens int
}

func (s *rangeCountSource) OpenRange(path string, off int64) (io.ReadCloser, error) {
	s.mu.Lock()
	s.rangeOpens++
	s.mu.Unlock()
	return s.MemSource.OpenRange(path, off)
}

func (s *rangeCountSource) opens() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rangeOpens
}

// TestColdIndexAlignedMorsels: a large NDJSON file with no recorded boundary
// index must still come out of buildMorselQueue cut on exact record starts —
// the cold-scan parallel pass computes the splits at queue-build time — and
// the splits must be recorded back into the registry so the second build
// reuses them without touching the file.
func TestColdIndexAlignedMorsels(t *testing.T) {
	data := ndSensorFile(300, 100) // ~68 KiB
	src := &rangeCountSource{MemSource: &runtime.MemSource{
		Collections: map[string]map[string][]byte{"/sensors": {"big.json": data}},
	}}
	file := "/sensors/big.json"
	reg := index.NewRegistry()
	scan := ScanSource{Collection: "/sensors", Project: measurementsPath()}
	opts := morselOptions{morselSize: 8 << 10, coldIndexMin: 1}

	q, _, err := buildMorselQueue(src, scan, reg, 1, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	coldOpens := src.opens()
	if coldOpens == 0 {
		t.Fatal("cold-index pass did not read the file")
	}
	var interior int
	for {
		m, _, ok := q.take(0)
		if !ok {
			break
		}
		if m.first {
			continue
		}
		interior++
		if !m.aligned {
			t.Fatalf("interior morsel [%d:%d) not aligned despite cold-index pass", m.start, m.end)
		}
		if data[m.start-1] != '\n' {
			t.Fatalf("morsel start %d is not just past a newline", m.start)
		}
	}
	if interior == 0 {
		t.Fatal("file was not split into aligned morsels")
	}

	// The pass recorded its result: the registry now serves the splits, and
	// they match a sequential boundary scan at the cold-index grain.
	sp, ok := reg.FileSplits("/sensors", file)
	if !ok || len(sp) == 0 {
		t.Fatal("cold-index splits were not recorded back into the registry")
	}
	bs := jsonparse.NewBoundaryScanner(coldIndexSplitGrain)
	bs.Write(data)
	bs.Close()
	want := bs.Splits()
	if len(sp) != len(want) {
		t.Fatalf("recorded %d splits, sequential scan says %d", len(sp), len(want))
	}
	for i := range sp {
		if sp[i] != want[i] {
			t.Fatalf("split[%d] = %d, want %d", i, sp[i], want[i])
		}
	}

	// Second build: splits come from the registry, no range opens.
	if _, _, err := buildMorselQueue(src, scan, reg, 1, opts, true); err != nil {
		t.Fatal(err)
	}
	if src.opens() != coldOpens {
		t.Fatalf("second build re-read the file (%d extra range opens); recorded splits not reused",
			src.opens()-coldOpens)
	}
}

// TestColdIndexDisabledAndGated: a negative threshold disables the pass, a
// threshold above the file size skips it, and with no recorder in the lookup
// chain the pass still aligns morsels without recording anything.
func TestColdIndexDisabledAndGated(t *testing.T) {
	data := ndSensorFile(300, 100)
	newSrc := func() *rangeCountSource {
		return &rangeCountSource{MemSource: &runtime.MemSource{
			Collections: map[string]map[string][]byte{"/sensors": {"big.json": data}},
		}}
	}
	scan := ScanSource{Collection: "/sensors", Project: measurementsPath()}

	countAligned := func(q *morselQueue) (interior, aligned int) {
		for {
			m, _, ok := q.take(0)
			if !ok {
				return
			}
			if m.first {
				continue
			}
			interior++
			if m.aligned {
				aligned++
			}
		}
	}

	for _, tc := range []struct {
		name string
		min  int64
	}{
		{"disabled", -1},
		{"below-threshold", int64(len(data)) + 1},
	} {
		src := newSrc()
		reg := index.NewRegistry()
		q, _, err := buildMorselQueue(src, scan, reg, 1,
			morselOptions{morselSize: 8 << 10, coldIndexMin: tc.min}, true)
		if err != nil {
			t.Fatal(err)
		}
		interior, aligned := countAligned(q)
		if interior == 0 {
			t.Fatalf("%s: file not split at all", tc.name)
		}
		if aligned != 0 {
			t.Errorf("%s: %d aligned morsels; cold pass should not have run", tc.name, aligned)
		}
		if src.opens() != 0 {
			t.Errorf("%s: %d range opens at queue build; cold pass should not have run", tc.name, src.opens())
		}
		if _, ok := reg.FileSplits("/sensors", "/sensors/big.json"); ok {
			t.Errorf("%s: splits recorded despite gated pass", tc.name)
		}
	}

	// nil IndexLookup: pass runs (alignment is still worth it), nothing to
	// record into.
	src := newSrc()
	q, _, err := buildMorselQueue(src, scan, nil, 1,
		morselOptions{morselSize: 8 << 10, coldIndexMin: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	interior, aligned := countAligned(q)
	if interior == 0 || aligned != interior {
		t.Fatalf("nil lookup: %d/%d interior morsels aligned, want all", aligned, interior)
	}
	if src.opens() == 0 {
		t.Fatal("nil lookup: cold pass did not run")
	}
}

// TestColdIndexScanEquivalence runs a full scan job with the cold-index pass
// forced on: the result must match the whole-file reference exactly (the
// aligned morsels preserve exactly-once record ownership), on both executors,
// and the staged/pipelined runs after the first reuse the recorded splits.
func TestColdIndexScanEquivalence(t *testing.T) {
	docs := map[string][]byte{
		"many.json":   ndSensorFile(200, 100),
		"bigrec.json": ndSensorFile(12, 3000),
		"tiny.json":   ndSensorFile(2, 0),
	}
	src := &rangeCountSource{MemSource: &runtime.MemSource{
		Collections: map[string]map[string][]byte{"/sensors": docs},
	}}
	want := referenceItems(t, docs, measurementsPath())
	reg := index.NewRegistry()
	env := func() *Env {
		return &Env{Source: src, MorselSize: 4 << 10, Indexes: reg, ColdIndexMinBytes: 1, ColdIndexWorkers: 4}
	}
	for _, parts := range []int{1, 3} {
		got := resultItems(runBoth(t, scanJob(parts, measurementsPath()), env))
		if len(got) != len(want) {
			t.Fatalf("parts=%d: %d items, want %d", parts, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("parts=%d: item %d = %s, want %s", parts, i, got[i], want[i])
			}
		}
	}
	for _, f := range []string{"/sensors/many.json", "/sensors/bigrec.json"} {
		if _, ok := reg.FileSplits("/sensors", f); !ok {
			t.Errorf("%s: cold-index splits not recorded", f)
		}
	}
}
