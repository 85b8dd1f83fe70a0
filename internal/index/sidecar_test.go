package index

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

func testSidecar() *Sidecar {
	return &Sidecar{
		Ident: runtime.FileIdent{Size: 4096, ModTimeNanos: 1234567890},
		Paths: []SidecarPathZones{
			{
				Path:      `("root")()("value")`,
				ZoneGrain: 1024,
				Zones: []FileStats{
					{Min: item.Number(1), Max: item.Number(9), Count: 3},
					{}, // empty zone: no values at the path in this byte range
					{Min: item.String("a"), Max: item.String("z"), Count: 7},
					{Min: item.Number(-4), Max: item.Number(-4), Count: 1},
				},
			},
			{Path: `("other")`, ZoneGrain: 2048, Zones: []FileStats{{}, {}}},
		},
	}
}

func TestSidecarRoundTrip(t *testing.T) {
	want := testSidecar()
	got, err := DecodeSidecar(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Ident != want.Ident {
		t.Fatalf("header round trip: %+v vs %+v", got, want)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("paths = %d, want %d", len(got.Paths), len(want.Paths))
	}
	for i, wp := range want.Paths {
		gp := got.Paths[i]
		if gp.Path != wp.Path || gp.ZoneGrain != wp.ZoneGrain || len(gp.Zones) != len(wp.Zones) {
			t.Fatalf("path %d: %+v vs %+v", i, gp, wp)
		}
		for j, wz := range wp.Zones {
			gz := gp.Zones[j]
			if gz.Count != wz.Count {
				t.Fatalf("path %d zone %d: count %d vs %d", i, j, gz.Count, wz.Count)
			}
			if wz.Count > 0 && (item.Compare(gz.Min, wz.Min) != 0 || item.Compare(gz.Max, wz.Max) != 0) {
				t.Fatalf("path %d zone %d: %v..%v vs %v..%v", i, j, gz.Min, gz.Max, wz.Min, wz.Max)
			}
		}
	}
}

// TestSidecarDecodeRejectsCorruption: every malformation — bad magic, bad
// version, flipped bytes, truncation, trailing garbage — must fail decoding
// (the caller treats any error as a cache miss; it must never panic or
// silently succeed).
func TestSidecarDecodeRejectsCorruption(t *testing.T) {
	good := testSidecar().Encode()
	if _, err := DecodeSidecar(good); err != nil {
		t.Fatal(err)
	}

	reseal := func(b []byte) []byte {
		// Recompute the CRC so the corruption under test is reached.
		body := b[:len(b)-4]
		return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
	}

	t.Run("magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] = 'X'
		if _, err := DecodeSidecar(b); err == nil {
			t.Fatal("bad magic must fail")
		}
	})
	t.Run("version", func(t *testing.T) {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[4:], SidecarVersion+1)
		if _, err := DecodeSidecar(reseal(b)); err == nil {
			t.Fatal("future version must fail")
		}
	})
	t.Run("crc", func(t *testing.T) {
		for off := 0; off < len(good); off += 7 {
			b := append([]byte(nil), good...)
			b[off] ^= 0x40
			if _, err := DecodeSidecar(b); err == nil {
				t.Fatalf("flipped byte at %d must fail", off)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(good); n += 3 {
			if _, err := DecodeSidecar(good[:n]); err == nil {
				t.Fatalf("truncation to %d bytes must fail", n)
			}
		}
	})
	t.Run("trailing", func(t *testing.T) {
		b := append(append([]byte(nil), good[:len(good)-4]...), 0, 0, 0)
		if _, err := DecodeSidecar(reseal(b)); err == nil {
			t.Fatal("trailing bytes must fail")
		}
	})
}

func TestLoadSidecarValidatesIdentity(t *testing.T) {
	dir := t.TempDir()
	sc := testSidecar()
	path := filepath.Join(dir, "data.json"+runtime.SidecarSuffix)
	if err := WriteSidecar(path, sc); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSidecar(path, sc.Ident); err != nil {
		t.Fatalf("matching identity: %v", err)
	}
	if _, err := LoadSidecar(path, runtime.FileIdent{Size: sc.Ident.Size + 1, ModTimeNanos: sc.Ident.ModTimeNanos}); err == nil {
		t.Fatal("size mismatch must fail")
	}
	if _, err := LoadSidecar(path, runtime.FileIdent{Size: sc.Ident.Size, ModTimeNanos: sc.Ident.ModTimeNanos + 1}); err == nil {
		t.Fatal("mtime mismatch must fail")
	}
	if _, err := LoadSidecar(filepath.Join(dir, "missing.vxqx"), sc.Ident); err == nil {
		t.Fatal("missing sidecar must fail")
	}
}

func TestSidecarPathFor(t *testing.T) {
	if got := SidecarPathFor("/data/a.json", ""); got != "/data/a.json"+runtime.SidecarSuffix {
		t.Errorf("default placement = %q", got)
	}
	a := SidecarPathFor("/data/a.json", "/cache")
	b := SidecarPathFor("/data/b.json", "/cache")
	if filepath.Dir(a) != "/cache" || a == b {
		t.Errorf("cache-dir placement: %q vs %q", a, b)
	}
	if filepath.Ext(a) != runtime.SidecarSuffix {
		t.Errorf("cache-dir sidecar %q lacks the suffix", a)
	}
}

// writeNDJSONDir writes a small NDJSON collection to dir and returns a
// DirSource over it.
func writeNDJSONDir(t *testing.T, dir string, files, records int) *runtime.DirSource {
	t.Helper()
	for f := 0; f < files; f++ {
		var data []byte
		for i := 0; i < records; i++ {
			data = append(data, fmt.Sprintf(`{"root":[{"results":[{"value":%d,"pad":"%0128d"}]}]}`, f*1000+i, i)...)
			data = append(data, '\n')
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("part-%d.json", f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return &runtime.DirSource{Mounts: map[string]string{"/nd": dir}}
}

func valuePath() jsonparse.Path {
	return jsonparse.Path{
		jsonparse.KeyStep("root"), jsonparse.MembersStep(),
		jsonparse.KeyStep("results"), jsonparse.MembersStep(),
		jsonparse.KeyStep("value"),
	}
}

// buildValueZones builds the value-path zone map of src's "/nd" collection
// at a fine zone grain.
func buildValueZones(t *testing.T, src runtime.Source) *ZoneMap {
	t.Helper()
	zms, err := BuildWith(src, "/nd", []jsonparse.Path{valuePath()}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return zms[0]
}

// TestRegistryWarmStartFromSidecars: what one registry builds and persists, a
// second (fresh, simulating a new process) must serve from sidecars alone —
// the same per-zone stats, zone by zone.
func TestRegistryWarmStartFromSidecars(t *testing.T) {
	dir := t.TempDir()
	src := writeNDJSONDir(t, dir, 2, 50)
	pers := &Persistence{}

	zm := buildValueZones(t, src)
	reg1 := NewRegistry(src.Ident)
	reg1.SetPersistence(pers)
	reg1.Add(zm)
	if w := reg1.Stats().SidecarWrites; w != 2 {
		t.Fatalf("sidecar writes = %d, want 2", w)
	}
	files, _ := src.Files("/nd")
	for _, f := range files {
		if _, err := os.Stat(f + runtime.SidecarSuffix); err != nil {
			t.Fatalf("no sidecar next to %s: %v", f, err)
		}
	}

	// A fresh registry — no zone maps, persistence only — must go warm.
	reg2 := NewRegistry(src.Ident)
	reg2.SetPersistence(pers)
	for _, f := range files {
		zones, ok := reg2.FileZones("/nd", valuePath(), f)
		if !ok {
			t.Fatalf("%s: no zones from sidecar", f)
		}
		if err := sameZones(zones, zm.Zones[f]); err != nil {
			t.Fatalf("%s: sidecar zones: %v", f, err)
		}
	}
	st := reg2.Stats()
	if st.SidecarLoads != 2 || st.SidecarMisses != 0 {
		t.Fatalf("stats = %+v, want 2 loads, 0 misses", st)
	}
	// Negative caching: repeated lookups must not re-read the disk.
	for _, f := range files {
		reg2.FileZones("/nd", valuePath(), f)
	}
	if st2 := reg2.Stats(); st2.SidecarLoads != st.SidecarLoads {
		t.Fatalf("repeated lookups re-loaded sidecars: %+v", st2)
	}
}

// TestSidecarV2IsCountedMiss: a version-2 sidecar, whose identity is only
// (size, mtime), is a counted miss: a fresh registry neither loads nor
// prunes on it, however well its size and mtime match the file.
func TestSidecarV2IsCountedMiss(t *testing.T) {
	dir := t.TempDir()
	src := writeNDJSONDir(t, dir, 1, 50)
	reg := NewRegistry(src.Ident)
	reg.SetPersistence(&Persistence{})
	reg.Add(buildValueZones(t, src))
	files, _ := src.Files("/nd")
	path := files[0] + runtime.SidecarSuffix
	v3, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Version 2 is version 3 without dev, ino and ctime after the mtime.
	v2 := append([]byte("VXQS"), 2, 0, 0, 0)
	v2 = append(v2, v3[8:24]...)
	v2 = append(v2, v3[48:len(v3)-4]...)
	v2 = binary.LittleEndian.AppendUint32(v2, crc32.ChecksumIEEE(v2))
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := NewRegistry(src.Ident)
	fresh.SetPersistence(&Persistence{})
	if _, ok := fresh.FileZones("/nd", valuePath(), files[0]); ok {
		t.Fatal("a version-2 sidecar served zones")
	}
	if st := fresh.Stats(); st.SidecarMisses != 1 || st.SidecarLoads != 0 {
		t.Fatalf("stats = %+v, want 1 miss and no load", st)
	}
}

// TestRegistryInvalidation: a changed file (mtime or size) makes its sidecar
// stale — lookups miss, and the next build rewrites the sidecar under the
// new identity. A corrupt sidecar is likewise a silent miss.
func TestRegistryInvalidation(t *testing.T) {
	dir := t.TempDir()
	src := writeNDJSONDir(t, dir, 1, 50)
	pers := &Persistence{}
	files, _ := src.Files("/nd")
	file := files[0]
	zones := func(r *Registry) bool {
		_, ok := r.FileZones("/nd", valuePath(), file)
		return ok
	}

	reg := NewRegistry(src.Ident)
	reg.SetPersistence(pers)
	reg.Add(buildValueZones(t, src))
	if w := reg.Stats().SidecarWrites; w != 1 {
		t.Fatalf("writes = %d, want 1", w)
	}

	t.Run("mtime", func(t *testing.T) {
		if err := os.Chtimes(file, time.Now(), time.Now().Add(3*time.Second)); err != nil {
			t.Fatal(err)
		}
		fresh := NewRegistry(src.Ident)
		fresh.SetPersistence(pers)
		if zones(fresh) {
			t.Fatal("stale sidecar served after mtime change")
		}
		if st := fresh.Stats(); st.SidecarMisses != 1 || st.SidecarLoads != 0 {
			t.Fatalf("stats = %+v, want 1 miss", st)
		}
		// A rebuild rewrites the sidecar and a fresh registry reads it warm
		// again.
		fresh.Add(buildValueZones(t, src))
		warm := NewRegistry(src.Ident)
		warm.SetPersistence(pers)
		if !zones(warm) {
			t.Fatal("rewritten sidecar not served")
		}
	})

	t.Run("size", func(t *testing.T) {
		f, err := os.OpenFile(file, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("{\"root\":[]}\n")); err != nil {
			t.Fatal(err)
		}
		f.Close()
		fresh := NewRegistry(src.Ident)
		fresh.SetPersistence(pers)
		if zones(fresh) {
			t.Fatal("stale sidecar served after size change")
		}
	})

	t.Run("in-memory staleness", func(t *testing.T) {
		// The same registry that already served the file warm must notice
		// the identity change on the next lookup — memory entries revalidate
		// like sidecars do.
		reg2 := NewRegistry(src.Ident)
		reg2.SetPersistence(pers)
		reg2.Add(buildValueZones(t, src))
		if !zones(reg2) {
			t.Fatal("built zones not served")
		}
		if err := os.Chtimes(file, time.Now(), time.Now().Add(7*time.Second)); err != nil {
			t.Fatal(err)
		}
		if zones(reg2) {
			t.Fatal("in-memory entry served after the file changed")
		}
	})

	t.Run("in-memory staleness without persistence", func(t *testing.T) {
		// Sidecars off: the in-memory entry is checked just the same.
		reg4 := NewRegistry(src.Ident)
		reg4.Add(buildValueZones(t, src))
		if !zones(reg4) {
			t.Fatal("built zones not served")
		}
		if err := os.Chtimes(file, time.Now(), time.Now().Add(11*time.Second)); err != nil {
			t.Fatal(err)
		}
		if zones(reg4) {
			t.Fatal("in-memory entry served after the file changed")
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		reg3 := NewRegistry(src.Ident)
		reg3.SetPersistence(pers)
		reg3.Add(buildValueZones(t, src))
		scPath := file + runtime.SidecarSuffix
		b, err := os.ReadFile(scPath)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff
		if err := os.WriteFile(scPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := NewRegistry(src.Ident)
		fresh.SetPersistence(pers)
		if zones(fresh) {
			t.Fatal("corrupt sidecar served")
		}
		if st := fresh.Stats(); st.SidecarMisses != 1 {
			t.Fatalf("stats = %+v, want 1 miss", st)
		}
		// Truncated: same story.
		if err := os.WriteFile(scPath, b[:7], 0o644); err != nil {
			t.Fatal(err)
		}
		fresh2 := NewRegistry(src.Ident)
		fresh2.SetPersistence(pers)
		if zones(fresh2) {
			t.Fatal("truncated sidecar served")
		}
	})
}

// TestRegistryNoPersistence: without persistence (or for files without a
// durable identity) the registry is memory-only — nothing is written to disk.
func TestRegistryNoPersistence(t *testing.T) {
	dir := t.TempDir()
	src := writeNDJSONDir(t, dir, 1, 20)
	files, _ := src.Files("/nd")

	reg := NewRegistry(src.Ident)
	reg.Add(buildValueZones(t, src))
	if _, err := os.Stat(files[0] + runtime.SidecarSuffix); !os.IsNotExist(err) {
		t.Fatalf("sidecar written without persistence: %v", err)
	}

	// MemSource files report no durable identity: persistence configured but
	// inert for them.
	mem := &runtime.MemSource{Collections: map[string]map[string][]byte{
		"/nd": {"doc.json": []byte(`{"root":[{"results":[{"value":1}]}]}` + "\n")},
	}}
	reg2 := NewRegistry(mem.Ident)
	reg2.SetPersistence(&Persistence{})
	reg2.Add(buildValueZones(t, mem))
	if _, ok := reg2.FileZones("/nd", valuePath(), "/nd/doc.json"); !ok {
		t.Fatal("memory-only zones lost")
	}
	if st := reg2.Stats(); st.SidecarWrites != 0 || st.SidecarLoads != 0 {
		t.Fatalf("stats = %+v, want no sidecar traffic", st)
	}

	// Without persistence, a lookup that finds nothing in memory returns
	// without asking for the file's identity (no stat on the scan path).
	stats := 0
	reg3 := NewRegistry(func(f string) (runtime.FileIdent, bool) { stats++; return src.Ident(f) })
	if _, ok := reg3.FileZones("/nd", valuePath(), files[0]); ok || stats != 0 {
		t.Fatalf("empty registry: ok=%v after %d identity checks, want a miss after 0", ok, stats)
	}
	reg3.Add(buildValueZones(t, src))
	if _, ok := reg3.FileZones("/nd", valuePath(), files[0]); !ok || stats != 1 {
		t.Fatalf("built registry: ok=%v after %d identity checks, want a hit after 1", ok, stats)
	}
}

// identSource is a MemSource whose files report chosen durable identities.
type identSource struct {
	*runtime.MemSource
	idents map[string]runtime.FileIdent
}

func (s identSource) Ident(path string) (runtime.FileIdent, bool) {
	id, ok := s.idents[path]
	return id, ok
}

// TestRegistryIgnoresIdentsThatCannotWitnessChange: a file whose mtime and
// ctime are both whole seconds (a filesystem without sub-second timestamps,
// where a same-size rewrite within the second keeps the identity) gets no
// zones, neither from the build in this process nor from its sidecar in a
// fresh one. A whole-second mtime beside a nanosecond ctime (a restored
// mtime on a nanosecond filesystem) still prunes.
func TestRegistryIgnoresIdentsThatCannotWitnessChange(t *testing.T) {
	doc := []byte(`{"root":[{"results":[{"value":1}]}]}` + "\n")
	const sec = int64(1_700_000_000) * 1e9
	src := identSource{
		MemSource: &runtime.MemSource{Collections: map[string]map[string][]byte{
			"/nd": {"coarse.json": doc, "zero.json": doc, "restored.json": doc},
		}},
		idents: map[string]runtime.FileIdent{
			"/nd/coarse.json":   {Size: int64(len(doc)), ModTimeNanos: sec, Ino: 1, CtimeNanos: sec + 1e9},
			"/nd/zero.json":     {Size: int64(len(doc)), Ino: 2},
			"/nd/restored.json": {Size: int64(len(doc)), ModTimeNanos: sec, Ino: 3, CtimeNanos: sec + 123_456_789},
		},
	}
	pers := &Persistence{Dir: t.TempDir()}
	built := NewRegistry(src.Ident)
	built.SetPersistence(pers)
	built.Add(buildValueZones(t, src))
	fresh := NewRegistry(src.Ident)
	fresh.SetPersistence(pers)
	for name, reg := range map[string]*Registry{"built": built, "fresh": fresh} {
		for file, want := range map[string]bool{"/nd/coarse.json": false, "/nd/zero.json": false, "/nd/restored.json": true} {
			if _, ok := reg.FileZones("/nd", valuePath(), file); ok != want {
				t.Errorf("%s registry, %s: zones found = %v, want %v", name, file, ok, want)
			}
		}
	}
	if st := fresh.Stats(); st.SidecarLoads != 1 || st.SidecarMisses != 0 {
		t.Errorf("fresh registry: %+v, want the one trusted sidecar loaded and nothing else read", st)
	}
}

// TestRegistryCacheDir: with a cache directory configured, sidecars land
// there instead of next to the data (read-only data directories).
func TestRegistryCacheDir(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(t.TempDir(), "cache") // not yet created: registry must MkdirAll
	src := writeNDJSONDir(t, dir, 1, 20)
	pers := &Persistence{Dir: cache}
	files, _ := src.Files("/nd")

	reg := NewRegistry(src.Ident)
	reg.SetPersistence(pers)
	reg.Add(buildValueZones(t, src))
	if _, err := os.Stat(files[0] + runtime.SidecarSuffix); !os.IsNotExist(err) {
		t.Fatalf("sidecar written next to data despite cache dir: %v", err)
	}
	entries, err := os.ReadDir(cache)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir entries = %v, err = %v", entries, err)
	}

	warm := NewRegistry(src.Ident)
	warm.SetPersistence(pers)
	if _, ok := warm.FileZones("/nd", valuePath(), files[0]); !ok {
		t.Fatal("cache-dir sidecar not served")
	}
}

// TestRegistryConcurrentAccess runs warm lookups concurrently with zone-map
// adds over the same files — the scenario of one job scanning warm while a
// rebuild of the same index lands. Run under -race (the Makefile race
// target covers this package).
func TestRegistryConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	src := writeNDJSONDir(t, dir, 2, 40)
	pers := &Persistence{}
	files, _ := src.Files("/nd")

	zm := buildValueZones(t, src)
	seed := NewRegistry(src.Ident)
	seed.SetPersistence(pers)
	seed.Add(zm)

	reg := NewRegistry(src.Ident)
	reg.SetPersistence(pers)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := files[(g+i)%len(files)]
				switch i % 3 {
				case 0:
					reg.FileZones("/nd", valuePath(), f)
				case 1:
					reg.FileZones("/nd", valuePath(), f)
				case 2:
					reg.Add(zm)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			reg.Add(zm)
		}
	}()
	wg.Wait()
	for _, f := range files {
		if _, ok := reg.FileZones("/nd", valuePath(), f); !ok {
			t.Errorf("%s: zones lost after concurrent access", f)
		}
	}
}

// TestWriteSidecarCleansUpOnFailure: a mid-way WriteSidecar failure (here a
// rename blocked by a directory squatting on the target path) must not leave
// the temp file behind — the atomic-write hygiene the spill and cache layers
// rely on.
func TestWriteSidecarCleansUpOnFailure(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "data.ndjson.vxqidx")
	// A directory at the target path makes os.Rename fail.
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteSidecar(target, testSidecar()); err == nil {
		t.Fatal("WriteSidecar over a directory: want error, got nil")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == filepath.Base(target) {
			continue // the blocking directory itself
		}
		t.Fatalf("stray file after failed WriteSidecar: %s", e.Name())
	}
	// And the success path leaves exactly the sidecar, no temp files.
	target2 := filepath.Join(dir, "ok.ndjson.vxqidx")
	if err := WriteSidecar(target2, testSidecar()); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left after successful WriteSidecar: %v", matches)
	}
}
