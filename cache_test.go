package vxq

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vxq/internal/gen"
	"vxq/internal/index"
	"vxq/internal/runtime"
)

func TestNormalizeQuery(t *testing.T) {
	cases := []struct{ in, want string }{
		{"  for $r in x  \n\t return $r ", `for $r in x return $r`},
		{`a  eq  "two  spaces"`, `a eq "two  spaces"`},
		{`a eq 'single  quoted'`, `a eq 'single  quoted'`},
		{`"esc\" still  in"  b`, `"esc\" still  in" b`},
		{"", ""},
		{"   ", ""},
		{`"unterminated   string`, `"unterminated   string`},
	}
	for _, c := range cases {
		if got := normalizeQuery(c.in); got != c.want {
			t.Errorf("normalizeQuery(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPlanCacheHit(t *testing.T) {
	eng := sensorEngine(t, Options{Partitions: 2})
	r1, err := eng.Query(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cache.PlanHit {
		t.Fatal("first query cannot be a plan hit")
	}
	// Same query, different whitespace: must hit.
	r2, err := eng.Query("  " + apiQ1 + "\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cache.PlanHit {
		t.Fatal("repeated query missed the plan cache")
	}
	if len(r1.Items) != len(r2.Items) {
		t.Fatalf("cached plan changed the result: %d vs %d items", len(r1.Items), len(r2.Items))
	}
	cs := eng.CacheStats()
	if cs.PlanHits != 1 || cs.PlanMisses != 1 {
		t.Errorf("plan cache stats = %+v, want 1 hit / 1 miss", cs)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	eng := sensorEngine(t, Options{Partitions: 1, PlanCacheSize: -1})
	for i := 0; i < 2; i++ {
		res, err := eng.Query(apiQ1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache.PlanHit {
			t.Fatal("plan cache disabled but hit reported")
		}
	}
	if cs := eng.CacheStats(); cs.PlanHits != 0 || cs.PlanMisses != 0 {
		t.Errorf("disabled plan cache counted traffic: %+v", cs)
	}
}

func TestPlanCacheLRUBound(t *testing.T) {
	eng := sensorEngine(t, Options{Partitions: 1, PlanCacheSize: 2})
	queries := []string{
		`collection("/sensors")("root")()("results")()("value")`,
		`collection("/sensors")("root")()("results")()("date")`,
		`collection("/sensors")("root")()("results")()("station")`,
	}
	// Fill with q0, q1; q2 evicts q0 (LRU); q0 must then recompile.
	for _, q := range queries {
		if _, err := eng.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.PlanHit {
		t.Fatal("evicted plan served from a bounded cache")
	}
	// q2 is still resident.
	res, err = eng.Query(queries[2])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cache.PlanHit {
		t.Fatal("most recent plan evicted from a cache with room")
	}
}

// diskSensorEngine writes a small generated collection to a temp dir and
// mounts it.
func diskSensorEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	dir := t.TempDir()
	cfg := gen.Default()
	cfg.Files = 2
	cfg.RecordsPerFile = 2
	cfg.MeasurementsPerArray = 5
	if _, err := cfg.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	eng := New(opts)
	eng.Mount("/sensors", dir)
	return eng
}

// TestCachedQueriesConcurrent hammers one engine and its plan cache from
// several goroutines — `make race` runs it under -race; results must stay
// correct throughout.
func TestCachedQueriesConcurrent(t *testing.T) {
	eng := diskSensorEngine(t, Options{Partitions: 2})
	want, err := eng.Query(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := eng.Query(apiQ1)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Items) != len(want.Items) {
					errs <- fmt.Errorf("concurrent query returned %d items, want %d", len(res.Items), len(want.Items))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlanCacheHoldsNoFileState: a compiled plan is reused across changes to
// the data it reads — a file of a mounted directory gains a matching record,
// a file joins the collection, MountDocs replaces the documents — and every
// repeat is a plan hit that returns the new answer, pruning included: each
// collection is indexed before the change.
func TestPlanCacheHoldsNoFileState(t *testing.T) {
	run := func(t *testing.T, eng *Engine, planHit bool, want string) {
		t.Helper()
		res, err := eng.Query(staleQuery)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache.PlanHit != planHit {
			t.Fatalf("plan hit = %v, want %v", res.Cache.PlanHit, planHit)
		}
		if got := fmt.Sprint(itemsJSON(res.Items)); got != want {
			t.Fatalf("items = %s, want %s", got, want)
		}
	}
	dirEngine := func(t *testing.T) (*Engine, string) {
		t.Helper()
		dir := t.TempDir()
		for name, b := range staleDocs() {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		eng := New(Options{Partitions: 2})
		eng.Mount("/c", dir)
		if err := eng.BuildIndex("/c", `("v")`); err != nil {
			t.Fatal(err)
		}
		run(t, eng, false, "[]")
		return eng, dir
	}

	t.Run("file changed", func(t *testing.T) {
		eng, dir := dirEngine(t)
		if err := os.WriteFile(filepath.Join(dir, "a.json"), []byte("{\"v\":1}\n{\"v\":150}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		run(t, eng, true, "[150]")
	})
	t.Run("file added", func(t *testing.T) {
		eng, dir := dirEngine(t)
		if err := os.WriteFile(filepath.Join(dir, "c.json"), []byte("{\"v\":120}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		run(t, eng, true, "[120]")
	})
	t.Run("docs remounted", func(t *testing.T) {
		eng := New(Options{Partitions: 2})
		eng.MountDocs("/c", staleDocs())
		if err := eng.BuildIndex("/c", `("v")`); err != nil {
			t.Fatal(err)
		}
		run(t, eng, false, "[]")
		docs := staleDocs()
		docs["b.json"] = []byte("{\"v\":300}\n{\"v\":180}\n")
		eng.MountDocs("/c", docs)
		run(t, eng, true, "[180]")
	})
}

func itemsJSON(items []Item) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = JSON(it)
	}
	return out
}

// TestSidecarsWrittenByEngineIndexBuild: an engine with default options
// persists what BuildIndexes computes; a second engine over the same mount
// prunes files warm — zero index builds — from sidecars alone.
func TestSidecarsWrittenByEngineIndexBuild(t *testing.T) {
	dir := t.TempDir()
	cfg := gen.Default()
	cfg.Files = 3
	cfg.RecordsPerFile = 2
	cfg.MeasurementsPerArray = 5
	cfg.PartitionByYear = true
	if _, err := cfg.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Partitions: 1})
	eng.Mount("/sensors", dir)
	if err := eng.BuildIndex("/sensors", `("root")()("results")()("date")`); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.SidecarWrites == 0 {
		t.Fatalf("BuildIndex persisted nothing: %+v", cs)
	}

	q := `for $r in collection("/sensors")("root")()("results")()
	      where $r("date") lt "1900-01-01T00:00" return $r("value")`
	eng2 := New(Options{Partitions: 1})
	eng2.Mount("/sensors", dir)
	res, err := eng2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 0 {
		t.Fatalf("impossible predicate returned %d items", len(res.Items))
	}
	if res.Stats.FilesSkipped != 3 {
		t.Fatalf("fresh engine skipped %d files, want 3 (warm from sidecars)", res.Stats.FilesSkipped)
	}
	if cs := eng2.CacheStats(); cs.SidecarLoads == 0 {
		t.Fatalf("fresh engine loaded no sidecars: %+v", cs)
	}

	// DisableSidecars: a third engine must see nothing.
	eng3 := New(Options{Partitions: 1, DisableSidecars: true})
	eng3.Mount("/sensors", dir)
	res, err = eng3.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FilesSkipped != 0 {
		t.Fatalf("sidecar-blind engine skipped %d files", res.Stats.FilesSkipped)
	}
}

// TestOneBigFileScan: one NDJSON file several morsels long comes back with
// the same rows at every partition count, morsel size and scheduler — the
// morsels are cut nominally and re-aligned by the newline probe, with no
// boundary pass (ColdIndexBuilds stays 0) — and a plain query writes no
// sidecar.
func TestOneBigFileScan(t *testing.T) {
	dir := t.TempDir()
	cfg := gen.Config{Seed: 3, Files: 1, RecordsPerFile: 300, MeasurementsPerArray: 8, Stations: 40,
		YearMin: 2000, YearMax: 2003, SplitRecords: true}
	size, err := cfg.WriteDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	const q = `for $r in collection("/sensors")("root")()("results")()
	      where $r("dataType") eq "TMIN" return {"s": $r("station"), "d": $r("date"), "v": $r("value")}`
	run := func(opts Options) []string {
		t.Helper()
		eng := New(opts)
		eng.Mount("/sensors", dir)
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ColdIndexBuilds != 0 {
			t.Fatalf("%+v: %d cold index builds, want 0", opts, res.Stats.ColdIndexBuilds)
		}
		return itemsJSON(res.Items)
	}
	want := run(Options{Partitions: 1, MorselSize: 1 << 30}) // one whole-file morsel
	if len(want) == 0 {
		t.Fatal("reference returned no rows; bad setup")
	}
	for _, ms := range []int64{size / 7, size / 3} {
		for parts := 1; parts <= 3; parts++ {
			for _, staged := range []bool{false, true} {
				got := run(Options{Partitions: parts, MorselSize: ms, Staged: staged})
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("morsel=%d parts=%d staged=%v: %d rows differ from the whole-file scan's %d",
						ms, parts, staged, len(got), len(want))
				}
			}
		}
	}
	if sc, _ := filepath.Glob(filepath.Join(dir, "*"+runtime.SidecarSuffix)); len(sc) != 0 {
		t.Fatalf("plain queries wrote sidecars: %v", sc)
	}
}

// v1Sidecar encodes a version-1 sidecar, the format that also carried
// record-boundary splits: header, split grain, delta-encoded splits, no
// zone paths, CRC.
func v1Sidecar(ident runtime.FileIdent, splits []int64) []byte {
	b := append([]byte("VXQS"), 1, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(ident.Size))
	b = binary.LittleEndian.AppendUint64(b, uint64(ident.ModTimeNanos))
	b = binary.LittleEndian.AppendUint64(b, 4<<10)
	b = binary.AppendUvarint(b, uint64(len(splits)))
	prev := int64(0)
	for _, s := range splits {
		b = binary.AppendUvarint(b, uint64(s-prev))
		prev = s
	}
	b = binary.AppendUvarint(b, 0)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestSidecarV1MigratesOnBuild: a version-1 sidecar left by an older build
// is a counted miss, never a query error; BuildIndexes rewrites it as the
// current version, and a fresh engine warm-starts from that — loading zones
// and pruning whole files and morsels of the survivor.
func TestSidecarV1MigratesOnBuild(t *testing.T) {
	dir := t.TempDir()
	// One year per file so a year bound skips whole files, dates clustered
	// within each file so a month bound skips morsels inside the survivor.
	cfg := gen.Config{
		Seed: 1, Files: 4, RecordsPerFile: 96, MeasurementsPerArray: 20, Stations: 50,
		YearMin: 2000, YearMax: 2003,
		PartitionByYear: true, SplitRecords: true, ClusterDates: true,
	}
	if _, err := cfg.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	src := &runtime.DirSource{Mounts: map[string]string{"/sensors": dir}}
	files, err := src.Files("/sensors")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ident, _ := src.Ident(f)
		if err := os.WriteFile(f+runtime.SidecarSuffix, v1Sidecar(ident, []int64{4096, 8192}), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	open := func() *Engine {
		eng := New(Options{Partitions: 2, MorselSize: 64 << 10}) // zones every 8 KiB
		eng.Mount("/sensors", dir)
		return eng
	}
	const month = `for $d in collection("/sensors")("root")()("results")()("date")
	      where $d ge "2003-06-01" and $d lt "2003-07-01" return $d`

	old := open()
	cold, err := old.Query(month)
	if err != nil {
		t.Fatalf("a version-1 sidecar failed the query: %v", err)
	}
	if len(cold.Items) == 0 {
		t.Fatal("one-month range returned nothing; bad setup")
	}
	if cs := old.CacheStats(); cs.SidecarMisses != int64(len(files)) || cs.SidecarLoads != 0 {
		t.Fatalf("version-1 sidecars: %+v, want %d misses and no loads", cs, len(files))
	}
	if err := old.BuildIndex("/sensors", `("root")()("results")()("date")`); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f + runtime.SidecarSuffix)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint32(b[4:]); v != index.SidecarVersion {
			t.Fatalf("%s: sidecar version %d after BuildIndex, want %d", f, v, index.SidecarVersion)
		}
	}

	warm := open()
	res, err := warm.Query(month)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Items) != fmt.Sprint(cold.Items) {
		t.Fatalf("warm pruned scan returned %d items, cold returned %d", len(res.Items), len(cold.Items))
	}
	if cs := warm.CacheStats(); cs.SidecarLoads == 0 || cs.SidecarWrites != 0 {
		t.Fatalf("fresh engine: %+v, want loads and no writes", cs)
	}
	if res.Stats.FilesSkipped == 0 || res.Stats.MorselsSkipped == 0 {
		t.Fatalf("range scan skipped %d files and %d morsels, want both > 0",
			res.Stats.FilesSkipped, res.Stats.MorselsSkipped)
	}
}
