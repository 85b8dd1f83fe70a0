package vxq

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// staleQuery selects the records whose "v" lies in [100, 200]. Its SELECT
// bounds the indexed path, so the scan carries a range filter and consults
// the zone index.
const staleQuery = `for $v in collection("/c")("v") where $v ge 100 and $v le 200 return $v`

// staleDocs is a two-file collection with no value in [100, 200].
func staleDocs() map[string][]byte {
	return map[string][]byte{
		"a.json": []byte("{\"v\":1}\n{\"v\":2}\n"),
		"b.json": []byte("{\"v\":300}\n{\"v\":400}\n"),
	}
}

// TestChangedFileStopsPruning: a file rewritten after BuildIndex so that it
// gains a matching record must be scanned, not pruned on the stats of its
// old bytes — with sidecars on and with sidecars off.
func TestChangedFileStopsPruning(t *testing.T) {
	for _, noSidecars := range []bool{false, true} {
		t.Run(fmt.Sprintf("sidecars_off=%v", noSidecars), func(t *testing.T) { changedFileStopsPruning(t, noSidecars) })
	}
}

func changedFileStopsPruning(t *testing.T, noSidecars bool) {
	dir := t.TempDir()
	for name, b := range staleDocs() {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	eng := New(Options{Partitions: 2, DisableSidecars: noSidecars})
	eng.Mount("/c", dir)
	if err := eng.BuildIndex("/c", `("v")`); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(staleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 0 || res.Stats.FilesSkipped != 2 {
		t.Fatalf("before the rewrite: %d items, %d files skipped; want 0 and 2",
			len(res.Items), res.Stats.FilesSkipped)
	}
	// The rewrite changes the file's size, so its identity changes.
	if err := os.WriteFile(filepath.Join(dir, "a.json"), []byte("{\"v\":1}\n{\"v\":150}\n{\"v\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Query(staleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || JSON(res.Items[0]) != "150" {
		t.Fatalf("after the rewrite: %d items %v, want [150]",
			len(res.Items), res.Items)
	}
	if res.Stats.FilesSkipped != 1 {
		t.Fatalf("after the rewrite: %d files skipped, want 1 (the unchanged one)", res.Stats.FilesSkipped)
	}
}

// TestRemountedDocsStopPruning: in-memory documents have no identity to
// check, so re-mounting a collection is its only change signal — a
// MountDocs after BuildIndex drops the collection's zones.
func TestRemountedDocsStopPruning(t *testing.T) {
	for _, noSidecars := range []bool{false, true} {
		t.Run(fmt.Sprintf("sidecars_off=%v", noSidecars), func(t *testing.T) { remountedDocsStopPruning(t, noSidecars) })
	}
}

func remountedDocsStopPruning(t *testing.T, noSidecars bool) {
	eng := New(Options{Partitions: 2, DisableSidecars: noSidecars})
	eng.MountDocs("/c", staleDocs())
	if err := eng.BuildIndex("/c", `("v")`); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(staleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 0 || res.Stats.FilesSkipped != 2 {
		t.Fatalf("before the re-mount: %d items, %d files skipped; want 0 and 2",
			len(res.Items), res.Stats.FilesSkipped)
	}
	docs := staleDocs()
	docs["a.json"] = []byte("{\"v\":1}\n{\"v\":150}\n")
	eng.MountDocs("/c", docs)
	res, err = eng.Query(staleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || JSON(res.Items[0]) != "150" {
		t.Fatalf("after the re-mount: %d items %v, want [150]",
			len(res.Items), res.Items)
	}
	if res.Stats.FilesSkipped != 0 {
		t.Fatalf("after the re-mount: %d files skipped, want 0", res.Stats.FilesSkipped)
	}
}

// TestSidecarKeepsPathsOtherEnginesBuilt: a build merges into the file's
// sidecar instead of replacing it. Engine A indexes ("v"), a fresh engine B
// indexes ("w") over the same files, and a third fresh engine still prunes
// a "v"-range query on the sidecar alone.
func TestSidecarKeepsPathsOtherEnginesBuilt(t *testing.T) {
	dir := t.TempDir()
	docs := map[string][]byte{
		"a.json": []byte("{\"v\":1,\"w\":10}\n{\"v\":2,\"w\":20}\n"),
		"b.json": []byte("{\"v\":300,\"w\":30}\n{\"v\":400,\"w\":40}\n"),
	}
	for name, b := range docs {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{`("v")`, `("w")`} {
		eng := New(Options{Partitions: 2})
		eng.Mount("/c", dir)
		if err := eng.BuildIndex("/c", path); err != nil {
			t.Fatal(err)
		}
	}
	eng := New(Options{Partitions: 2})
	eng.Mount("/c", dir)
	res, err := eng.Query(staleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 0 || res.Stats.FilesSkipped == 0 {
		t.Fatalf("v-range query after builds of v then w: %d items, %d files skipped; want 0 items and files skipped",
			len(res.Items), res.Stats.FilesSkipped)
	}
}

// TestSameSizeRewriteWithRestoredMtime: a file rewritten with bytes of the
// same size whose old mtime is then put back (os.Chtimes, as a restoring
// copy does) must not be pruned on, or served from, what was built or cached
// for its old bytes. The file's ctime moves on the rewrite, and no caller can
// set it back. Covered with sidecars on (the same engine and a fresh one),
// with sidecars off, and with the result cache on.
func TestSameSizeRewriteWithRestoredMtime(t *testing.T) {
	for name, opts := range map[string]Options{
		"sidecars":     {Partitions: 2},
		"no_sidecars":  {Partitions: 2, DisableSidecars: true},
		"result_cache": {Partitions: 2, ResultCacheBytes: 1 << 20},
	} {
		t.Run(name, func(t *testing.T) { sameSizeRewriteWithRestoredMtime(t, opts) })
	}
}

func sameSizeRewriteWithRestoredMtime(t *testing.T, opts Options) {
	const query = `for $v in collection("/c")("v") where $v ge 4 return $v`
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	if err := os.WriteFile(path, []byte("{\"v\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func() *Engine {
		eng := New(opts)
		eng.Mount("/c", dir)
		return eng
	}
	eng := open()
	if err := eng.BuildIndex("/c", `("v")`); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 0 || res.Stats.FilesSkipped != 1 {
		t.Fatalf("before the rewrite: %d items, %d files skipped; want 0 and 1", len(res.Items), res.Stats.FilesSkipped)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Let the clock pass a coarse timestamp tick, so the rewrite's ctime
	// differs from the first write's on any filesystem with sub-tick
	// timestamps.
	time.Sleep(50 * time.Millisecond)
	if err := os.WriteFile(path, []byte("{\"v\":5}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(path); err != nil || after.Size() != fi.Size() || !after.ModTime().Equal(fi.ModTime()) {
		t.Fatalf("rewrite did not keep size and mtime: %v", err)
	}
	hits := eng.CacheStats().ResultHits
	engines := []*Engine{eng}
	if !opts.DisableSidecars {
		engines = append(engines, open()) // loads the file's sidecar
	}
	for i, e := range engines {
		res, err := e.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) != 1 || JSON(res.Items[0]) != "5" || res.Stats.FilesSkipped != 0 {
			t.Fatalf("engine %d after the rewrite: items %v, %d files skipped; want [5] and 0",
				i, res.Items, res.Stats.FilesSkipped)
		}
	}
	if h := eng.CacheStats().ResultHits; h != hits {
		t.Fatalf("the query after the rewrite was a result-cache hit (%d → %d)", hits, h)
	}
}
