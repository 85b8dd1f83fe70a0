package index

import (
	"fmt"
	"io"
	"testing"

	"vxq/internal/gen"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

func datePath() jsonparse.Path {
	return jsonparse.Path{
		jsonparse.KeyStep("root"), jsonparse.MembersStep(),
		jsonparse.KeyStep("results"), jsonparse.MembersStep(),
		jsonparse.KeyStep("date"),
	}
}

func yearPartitionedSource(t *testing.T, files int) runtime.Source {
	t.Helper()
	cfg := gen.Default()
	cfg.Files = files
	cfg.RecordsPerFile = 4
	cfg.MeasurementsPerArray = 10
	cfg.PartitionByYear = true
	docs, _, err := cfg.InMemory()
	if err != nil {
		t.Fatal(err)
	}
	return &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
}

// testGrain is the zone width the index tests build at: fine enough that
// every generated file spans several zones.
const testGrain = 1 << 10

// buildOne builds the zone map of one path at testGrain.
func buildOne(src runtime.Source, collection string, path jsonparse.Path) (*ZoneMap, error) {
	zms, err := BuildWith(src, collection, []jsonparse.Path{path}, testGrain)
	if err != nil {
		return nil, err
	}
	return zms[0], nil
}

// fold is a file's value range: the fold of its zones.
func fold(pz PathZones) FileStats {
	var agg FileStats
	for _, z := range pz.Stats {
		if z.Count == 0 {
			continue
		}
		if agg.Count == 0 || item.Compare(z.Min, agg.Min) < 0 {
			agg.Min = z.Min
		}
		if agg.Count == 0 || item.Compare(z.Max, agg.Max) > 0 {
			agg.Max = z.Max
		}
		agg.Count += z.Count
	}
	return agg
}

// sameZones reports how got (a registry lookup) differs from want (what a
// build computed), zone by zone: bounds, counts, minima and maxima.
func sameZones(got []runtime.Zone, want PathZones) error {
	if len(got) != len(want.Stats) {
		return fmt.Errorf("%d zones, want %d", len(got), len(want.Stats))
	}
	for i, z := range got {
		w := want.Stats[i]
		start := int64(i) * want.Grain
		if z.Start != start || z.End != min(start+want.Grain, want.Size) {
			return fmt.Errorf("zone %d covers [%d,%d), want [%d,%d)", i, z.Start, z.End, start, min(start+want.Grain, want.Size))
		}
		if z.Range.Count != w.Count || (w.Count > 0 &&
			(item.Compare(z.Range.Min, w.Min) != 0 || item.Compare(z.Range.Max, w.Max) != 0)) {
			return fmt.Errorf("zone %d = %v..%v (%d), want %v..%v (%d)",
				i, z.Range.Min, z.Range.Max, z.Range.Count, w.Min, w.Max, w.Count)
		}
	}
	return nil
}

func TestBuildZoneMap(t *testing.T) {
	src := yearPartitionedSource(t, 6)
	zm, err := buildOne(src, "/sensors", datePath())
	if err != nil {
		t.Fatal(err)
	}
	if len(zm.Zones) != 6 {
		t.Fatalf("files = %d", len(zm.Zones))
	}
	for f, pz := range zm.Zones {
		size, _ := src.Size(f)
		if pz.Grain != testGrain || pz.Size != size || int64(len(pz.Stats)) != (size+testGrain-1)/testGrain {
			t.Errorf("%s: %d zones of %d bytes over %d bytes, want dense coverage of %d", f,
				len(pz.Stats), pz.Grain, pz.Size, size)
		}
		st := fold(pz)
		if st.Count != 4*10 {
			t.Errorf("%s: count = %d, want 40", f, st.Count)
		}
		if st.Min == nil || st.Max == nil {
			t.Fatalf("%s: missing bounds", f)
		}
		for i, z := range pz.Stats {
			if z.Count > 0 && item.Compare(z.Min, z.Max) > 0 {
				t.Errorf("%s: zone %d: min > max", f, i)
			}
		}
		// Year-partitioned: min and max share the file's year.
		minY := string(st.Min.(item.String))[:4]
		maxY := string(st.Max.(item.String))[:4]
		if minY != maxY {
			t.Errorf("%s: year range %s..%s, want single year", f, minY, maxY)
		}
	}
}

func TestBuildRejectsNonScalarPath(t *testing.T) {
	src := yearPartitionedSource(t, 1)
	objPath := jsonparse.Path{jsonparse.KeyStep("root"), jsonparse.MembersStep()}
	if _, err := buildOne(src, "/sensors", objPath); err == nil {
		t.Fatal("object path must be rejected")
	}
	if _, err := buildOne(src, "/missing", datePath()); err == nil {
		t.Fatal("missing collection must fail")
	}
	for _, grain := range []int64{0, -1} {
		if _, err := BuildWith(src, "/sensors", []jsonparse.Path{datePath()}, grain); err == nil {
			t.Errorf("zone grain %d must be rejected", grain)
		}
	}
}

// TestBuildEmptyFiles: an empty file, and a file with no value at the path,
// each get zones that cover them and admit nothing — one empty zone for the
// empty file.
func TestBuildEmptyFiles(t *testing.T) {
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/c": {
		"empty.json": nil,
		"other.json": []byte("{\"w\":1}\n{\"w\":2}\n"),
	}}}
	zm, err := buildOne(src, "/c", jsonparse.Path{jsonparse.KeyStep("v")})
	if err != nil {
		t.Fatal(err)
	}
	if pz := zm.Zones["/c/empty.json"]; pz.Size != 0 || len(pz.Stats) != 1 || pz.Stats[0].Count != 0 {
		t.Errorf("empty file: %+v, want one empty zone", pz)
	}
	if pz := zm.Zones["/c/other.json"]; pz.Size != 16 || len(pz.Stats) != 1 || pz.Stats[0].Count != 0 {
		t.Errorf("file without values at the path: %+v, want one empty zone over 16 bytes", pz)
	}
	reg := NewRegistry(src.Ident)
	reg.Add(zm)
	zones, ok := reg.FileZones("/c", jsonparse.Path{jsonparse.KeyStep("v")}, "/c/empty.json")
	if !ok || len(zones) != 1 || zones[0] != (runtime.Zone{}) {
		t.Errorf("empty file lookup = %+v, ok=%v; want one empty zone [0,0)", zones, ok)
	}
}

func TestRegistryLookup(t *testing.T) {
	src := yearPartitionedSource(t, 3)
	zm, err := buildOne(src, "/sensors", datePath())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(src.Ident)
	reg.Add(zm)
	files, _ := src.Files("/sensors")
	for _, f := range files {
		zones, ok := reg.FileZones("/sensors", datePath(), f)
		if !ok {
			t.Fatalf("%s: zones not found", f)
		}
		if err := sameZones(zones, zm.Zones[f]); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
	// Misses: wrong path, wrong collection, wrong file.
	if _, ok := reg.FileZones("/sensors", datePath().Append(jsonparse.MembersStep()), files[0]); ok {
		t.Error("wrong path should miss")
	}
	if _, ok := reg.FileZones("/other", datePath(), files[0]); ok {
		t.Error("wrong collection should miss")
	}
	if _, ok := reg.FileZones("/sensors", datePath(), "nope.json"); ok {
		t.Error("wrong file should miss")
	}
	// Drop forgets the collection: its documents have no identity to check.
	reg.Drop("/sensors")
	if _, ok := reg.FileZones("/sensors", datePath(), files[0]); ok {
		t.Error("dropped collection should miss")
	}
}

func TestParsePath(t *testing.T) {
	p, err := jsonparse.ParsePath(`("root")()("results")()("date")`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(datePath()) {
		t.Errorf("parsed = %s", p)
	}
	p, err = jsonparse.ParsePath(`("items")(3)`)
	if err != nil {
		t.Fatal(err)
	}
	want := jsonparse.Path{jsonparse.KeyStep("items"), jsonparse.IndexStep(3)}
	if !p.Equal(want) {
		t.Errorf("parsed = %s", p)
	}
	for _, bad := range []string{"", "root", "(", `("a"`, `("a")x`, "(0)", "(x)"} {
		if _, err := jsonparse.ParsePath(bad); err == nil {
			t.Errorf("ParsePath(%q) should fail", bad)
		}
	}
	// Round trip.
	if rt, err := jsonparse.ParsePath(datePath().String()); err != nil || !rt.Equal(datePath()) {
		t.Errorf("round trip failed: %v %v", rt, err)
	}
}

// TestBuildNDJSONWithSplits: zone maps share DATASCAN's record model — a
// file may be a stream of documents split one per line — so every record
// contributes exactly one value, escaped newlines inside strings included.
func TestBuildNDJSONWithSplits(t *testing.T) {
	var data []byte
	rec := `{"root":[{"metadata":{"count":1},"results":[{"date":"2013-12-01T00:00","dataType":"TMIN","value":%d,"note":"esc\\nape %s"}]}]}` + "\n"
	pad := make([]byte, 150)
	for i := range pad {
		pad[i] = 'x'
	}
	for i := 0; i < 200; i++ {
		data = append(data, []byte(fmt.Sprintf(rec, i%40, string(pad)))...)
	}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{
		"/nd": {"recs.json": data},
	}}
	valuePath := jsonparse.Path{
		jsonparse.KeyStep("root"), jsonparse.MembersStep(),
		jsonparse.KeyStep("results"), jsonparse.MembersStep(),
		jsonparse.KeyStep("value"),
	}
	zm, err := buildOne(src, "/nd", valuePath)
	if err != nil {
		t.Fatal(err)
	}
	pz := zm.Zones["/nd/recs.json"]
	if st := fold(pz); st.Count != 200 {
		t.Fatalf("count = %d, want 200 (one value per NDJSON record)", st.Count)
	}
	reg := NewRegistry(src.Ident)
	reg.Add(zm)
	zones, ok := reg.FileZones("/nd", valuePath, "/nd/recs.json")
	if !ok {
		t.Fatal("zones not found")
	}
	if err := sameZones(zones, pz); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.FileZones("/other", valuePath, "/nd/recs.json"); ok {
		t.Error("wrong collection should miss")
	}
	if _, ok := reg.FileZones("/nd", valuePath, "nope.json"); ok {
		t.Error("wrong file should miss")
	}
}

// ndjsonCorpus builds an in-memory NDJSON collection with strings full of
// escaped quotes, backslash runs and braces, at record lengths that put them
// at arbitrary offsets relative to chunk boundaries.
func ndjsonCorpus(files, records int) *runtime.MemSource {
	docs := map[string][]byte{}
	for f := 0; f < files; f++ {
		var data []byte
		for i := 0; i < records; i++ {
			pad := make([]byte, 37+(i*13)%211)
			for j := range pad {
				pad[j] = byte('a' + (i+j)%26)
			}
			rec := fmt.Sprintf(
				`{"root":[{"results":[{"date":"2013-12-%02dT00:00","value":%d,"note":"esc\\%s quote \" brace { %s"}]}]}`,
				1+i%28, (i*7)%100, string(pad[:1+i%3]), string(pad))
			data = append(data, rec...)
			data = append(data, '\n')
		}
		docs[fmt.Sprintf("part-%d.json", f)] = data
	}
	return &runtime.MemSource{Collections: map[string]map[string][]byte{"/nd": docs}}
}

// countingSource wraps a Source and counts Open calls per file.
type countingSource struct {
	runtime.Source
	opens map[string]int
}

func (c *countingSource) Open(path string) (io.ReadCloser, error) {
	c.opens[path]++
	return c.Source.Open(path)
}

// TestBuildWithSharedScan: one BuildWith over several paths must read every
// file exactly once and produce, per path, the same zones a one-path build
// would.
func TestBuildWithSharedScan(t *testing.T) {
	mem := ndjsonCorpus(2, 120)
	paths := []jsonparse.Path{
		{jsonparse.KeyStep("root"), jsonparse.MembersStep(),
			jsonparse.KeyStep("results"), jsonparse.MembersStep(), jsonparse.KeyStep("value")},
		{jsonparse.KeyStep("root"), jsonparse.MembersStep(),
			jsonparse.KeyStep("results"), jsonparse.MembersStep(), jsonparse.KeyStep("date")},
	}
	cs := &countingSource{Source: mem, opens: map[string]int{}}
	zms, err := BuildWith(cs, "/nd", paths, testGrain)
	if err != nil {
		t.Fatal(err)
	}
	if len(zms) != len(paths) {
		t.Fatalf("zone maps = %d, want %d", len(zms), len(paths))
	}
	files, _ := mem.Files("/nd")
	for _, f := range files {
		if cs.opens[f] != 1 {
			t.Errorf("%s opened %d times, want 1 (shared scan)", f, cs.opens[f])
		}
	}
	for i, p := range paths {
		solo, err := buildOne(mem, "/nd", p)
		if err != nil {
			t.Fatal(err)
		}
		if !zms[i].Path.Equal(p) {
			t.Errorf("zms[%d].Path = %s, want %s", i, zms[i].Path, p)
		}
		for _, f := range files {
			if err := sameZones(zms[i].Zones[f].runtimeZones(), solo.Zones[f]); err != nil {
				t.Errorf("path %s, %s: shared vs solo: %v", p, f, err)
			}
		}
	}
	// Multi-path builds inherit the scalar-path check.
	objPath := jsonparse.Path{jsonparse.KeyStep("root"), jsonparse.MembersStep()}
	if _, err := BuildWith(mem, "/nd", []jsonparse.Path{paths[0], objPath}, testGrain); err == nil {
		t.Error("object path must be rejected in a multi-path build")
	}
	if _, err := BuildWith(mem, "/nd", nil, testGrain); err == nil {
		t.Error("empty path list must be rejected")
	}
}
