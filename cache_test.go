package vxq

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vxq/internal/gen"
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
// mounts it — result-cache validation needs real file identities.
func diskSensorEngine(t *testing.T, opts Options) (*Engine, string) {
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
	return eng, dir
}

func TestResultCacheHit(t *testing.T) {
	eng, _ := diskSensorEngine(t, Options{Partitions: 2, ResultCacheBytes: 1 << 20})
	r1, err := eng.Query(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cache.ResultHit {
		t.Fatal("first query cannot be a result hit")
	}
	r2, err := eng.Query(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cache.ResultHit {
		t.Fatal("repeated query over unchanged files missed the result cache")
	}
	if len(r1.Items) != len(r2.Items) {
		t.Fatalf("cached result differs: %d vs %d items", len(r1.Items), len(r2.Items))
	}
	for i := range r1.Items {
		if JSON(r1.Items[i]) != JSON(r2.Items[i]) {
			t.Fatalf("cached item %d differs: %s vs %s", i, JSON(r1.Items[i]), JSON(r2.Items[i]))
		}
	}
	cs := eng.CacheStats()
	if cs.ResultHits != 1 || cs.ResultCacheBytes == 0 {
		t.Errorf("result cache stats = %+v", cs)
	}
	// A hit returns a copy: mutating it must not poison the cache.
	r2.Items[0] = nil
	r3, err := eng.Query(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Cache.ResultHit || r3.Items[0] == nil {
		t.Fatal("cache entry shares the caller's Items slice")
	}
}

func TestResultCacheInvalidation(t *testing.T) {
	eng, dir := diskSensorEngine(t, Options{Partitions: 1, ResultCacheBytes: 1 << 20})
	if _, err := eng.Query(apiQ1); err != nil {
		t.Fatal(err)
	}

	t.Run("mtime change", func(t *testing.T) {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(files) == 0 {
			t.Fatalf("glob: %v %v", files, err)
		}
		if err := os.Chtimes(files[0], time.Now(), time.Now().Add(5*time.Second)); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(apiQ1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache.ResultHit {
			t.Fatal("stale result served after a file changed")
		}
		// Re-cached under the new identity: next run hits again.
		res, err = eng.Query(apiQ1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cache.ResultHit {
			t.Fatal("result not re-cached after invalidation")
		}
	})

	t.Run("file added", func(t *testing.T) {
		if err := os.WriteFile(filepath.Join(dir, "zz-extra.json"), []byte(`{"root":[]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(apiQ1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache.ResultHit {
			t.Fatal("stale result served after a file was added to the collection")
		}
	})

	t.Run("mount change", func(t *testing.T) {
		if _, err := eng.Query(apiQ1); err != nil {
			t.Fatal(err)
		}
		eng.MountDocs("/other", map[string][]byte{"d.json": []byte(`{"root":[]}`)})
		res, err := eng.Query(apiQ1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache.ResultHit {
			t.Fatal("stale result served after the mount set changed")
		}
	})
}

func TestResultCacheMemDocsNotValidatable(t *testing.T) {
	// In-memory documents have no durable identity, but the mount generation
	// covers wholesale replacement via MountDocs.
	eng := sensorEngine(t, Options{Partitions: 1, ResultCacheBytes: 1 << 20})
	if _, err := eng.Query(apiQ1); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cache.ResultHit {
		t.Fatal("unchanged in-memory collection missed the result cache")
	}
	cfg := gen.Default()
	cfg.Files = 4
	cfg.RecordsPerFile = 4
	cfg.MeasurementsPerArray = 10
	docs, _, err := cfg.InMemory()
	if err != nil {
		t.Fatal(err)
	}
	eng.MountDocs("/sensors", docs)
	res, err = eng.Query(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.ResultHit {
		t.Fatal("stale result served after MountDocs replaced the collection")
	}
}

func TestResultCacheBounded(t *testing.T) {
	// A tiny budget: entries larger than the whole cache are simply not
	// stored, so repeats keep executing (and keep being correct).
	eng := sensorEngine(t, Options{Partitions: 1, ResultCacheBytes: 16})
	for i := 0; i < 2; i++ {
		res, err := eng.Query(apiQ1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache.ResultHit {
			t.Fatal("oversized entry served from a 16-byte cache")
		}
	}
	if cs := eng.CacheStats(); cs.ResultCacheBytes != 0 {
		t.Errorf("cache charged %d bytes for entries it refused", cs.ResultCacheBytes)
	}

	// LRU eviction: with room for roughly one entry, alternating queries
	// evict each other.
	eng2 := sensorEngine(t, Options{Partitions: 1, ResultCacheBytes: 4 << 10})
	qa := `collection("/sensors")("root")()("results")()("value")`
	qb := `collection("/sensors")("root")()("results")()("date")`
	if _, err := eng2.Query(qa); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Query(qb); err != nil {
		t.Fatal(err)
	}
	cs := eng2.CacheStats()
	if cs.ResultCacheBytes > 4<<10 {
		t.Errorf("cache over budget: %d bytes", cs.ResultCacheBytes)
	}
}

func TestResultCacheExcludesJSONDoc(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "doc.json")
	if err := os.WriteFile(doc, []byte(`{"a": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := New(Options{ResultCacheBytes: 1 << 20})
	q := fmt.Sprintf(`json-doc(%q)("a")`, doc)
	for i := 0; i < 2; i++ {
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache.ResultHit {
			t.Fatal("json-doc query served from the result cache")
		}
	}
}

// TestCachedQueriesConcurrent hammers one engine from several goroutines with
// both caches on — run under -race; results must stay correct throughout.
func TestCachedQueriesConcurrent(t *testing.T) {
	eng, _ := diskSensorEngine(t, Options{Partitions: 2, ResultCacheBytes: 1 << 20})
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

// TestSidecarsWrittenByColdScan: the other writer. A first scan of files
// bigger than a morsel runs the cold boundary pass and persists what it
// found; a fresh engine over the same directory then rebuilds nothing, hits
// its plan cache on the repeat, and — once a date index is persisted —
// prunes a one-month range query down to a few morsels of one file.
func TestSidecarsWrittenByColdScan(t *testing.T) {
	dir := t.TempDir()
	// Newline-split records so byte-range morsels exist, one year per file so
	// a year bound skips whole files, dates clustered within each file so a
	// month bound skips morsels inside the surviving one.
	cfg := gen.Config{
		Seed: 1, Files: 4, RecordsPerFile: 96, MeasurementsPerArray: 20, Stations: 50,
		YearMin: 2000, YearMax: 2003,
		PartitionByYear: true, SplitRecords: true, ClusterDates: true,
	}
	if _, err := cfg.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	open := func() *Engine {
		eng := New(Options{Partitions: 2, MorselSize: 64 << 10, ColdIndexMinBytes: 1, IndexZoneGrain: 16 << 10})
		eng.Mount("/sensors", dir)
		return eng
	}
	query := func(eng *Engine, q string) *Result {
		t.Helper()
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cold := open()
	first := query(cold, apiQ1)
	if first.Stats.ColdIndexBuilds == 0 {
		t.Fatal("first scan ran no cold boundary pass")
	}
	if cs := cold.CacheStats(); cs.SidecarWrites == 0 {
		t.Fatalf("first scan persisted nothing: %+v", cs)
	}

	warm := open()
	for i, wantPlanHit := range []bool{false, true} {
		res := query(warm, apiQ1)
		if res.Stats.ColdIndexBuilds != 0 {
			t.Fatalf("warm scan %d rebuilt %d structural indexes, want 0", i, res.Stats.ColdIndexBuilds)
		}
		if res.Cache.PlanHit != wantPlanHit {
			t.Fatalf("warm scan %d: plan hit = %v, want %v", i, res.Cache.PlanHit, wantPlanHit)
		}
		if len(res.Items) != len(first.Items) {
			t.Fatalf("warm scan %d returned %d items, cold returned %d", i, len(res.Items), len(first.Items))
		}
	}
	if cs := warm.CacheStats(); cs.SidecarLoads == 0 {
		t.Fatalf("fresh engine loaded no sidecars: %+v", cs)
	}

	if err := warm.BuildIndex("/sensors", `("root")()("results")()("date")`); err != nil {
		t.Fatal(err)
	}
	reader := open()
	res := query(reader, `for $d in collection("/sensors")("root")()("results")()("date")
	      where $d ge "2003-06-01" and $d lt "2003-07-01" return $d`)
	if len(res.Items) == 0 {
		t.Fatal("one-month range returned nothing; bad setup")
	}
	if res.Stats.FilesSkipped == 0 || res.Stats.MorselsSkipped == 0 {
		t.Fatalf("range scan skipped %d files and %d morsels, want both > 0",
			res.Stats.FilesSkipped, res.Stats.MorselsSkipped)
	}
	if res.Stats.ColdIndexBuilds != 0 {
		t.Fatalf("range scan rebuilt %d structural indexes on a sidecar-warm collection", res.Stats.ColdIndexBuilds)
	}
}

// TestResultCacheTruncatedMtimeConservativeMiss: a file whose mtime carries
// no sub-second precision (a filesystem with second-granularity timestamps)
// cannot witness a same-size rewrite made within the same second, so the
// cache must treat its identity as unverifiable and miss rather than risk
// serving a stale result.
func TestResultCacheTruncatedMtimeConservativeMiss(t *testing.T) {
	eng, dir := diskSensorEngine(t, Options{Partitions: 1, ResultCacheBytes: 1 << 20})
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("glob: %v %v", files, err)
	}
	// Truncate every file's mtime to a whole second, as a coarse filesystem
	// would report it.
	trunc := time.Now().Truncate(time.Second)
	for _, f := range files {
		if err := os.Chtimes(f, trunc, trunc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Query(apiQ1); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.ResultHit {
		t.Fatal("result served from cache though the file identities cannot witness a same-second rewrite")
	}
	// Restoring sub-second mtimes makes identities reliable again: the entry
	// re-caches and the next run hits.
	for _, f := range files {
		now := time.Now()
		if now.Nanosecond()%1e9 == 0 {
			now = now.Add(time.Microsecond)
		}
		if err := os.Chtimes(f, now, now); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Query(apiQ1); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Query(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cache.ResultHit {
		t.Fatal("result not cached once file identities became reliable")
	}
}
