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

func TestBuildZoneMap(t *testing.T) {
	src := yearPartitionedSource(t, 6)
	zm, err := Build(src, "/sensors", datePath())
	if err != nil {
		t.Fatal(err)
	}
	if len(zm.Files) != 6 {
		t.Fatalf("files = %d", len(zm.Files))
	}
	for f, st := range zm.Files {
		if st.Count != 4*10 {
			t.Errorf("%s: count = %d, want 40", f, st.Count)
		}
		if st.Min == nil || st.Max == nil {
			t.Fatalf("%s: missing bounds", f)
		}
		if item.Compare(st.Min, st.Max) > 0 {
			t.Errorf("%s: min > max", f)
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
	if _, err := Build(src, "/sensors", objPath); err == nil {
		t.Fatal("object path must be rejected")
	}
	if _, err := Build(src, "/missing", datePath()); err == nil {
		t.Fatal("missing collection must fail")
	}
}

func TestRegistryLookup(t *testing.T) {
	src := yearPartitionedSource(t, 3)
	zm, err := Build(src, "/sensors", datePath())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add(zm)
	if reg.Len() != 1 {
		t.Fatalf("len = %d", reg.Len())
	}
	files, _ := src.Files("/sensors")
	r, ok := reg.FileRange("/sensors", datePath(), files[0])
	if !ok {
		t.Fatal("range not found")
	}
	if r.Count == 0 || r.Min == nil {
		t.Errorf("range = %+v", r)
	}
	// Misses: wrong path, wrong collection, wrong file.
	if _, ok := reg.FileRange("/sensors", datePath().Append(jsonparse.MembersStep()), files[0]); ok {
		t.Error("wrong path should miss")
	}
	if _, ok := reg.FileRange("/other", datePath(), files[0]); ok {
		t.Error("wrong collection should miss")
	}
	if _, ok := reg.FileRange("/sensors", datePath(), "nope.json"); ok {
		t.Error("wrong file should miss")
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
	zm, err := Build(src, "/nd", valuePath)
	if err != nil {
		t.Fatal(err)
	}
	st := zm.Files["/nd/recs.json"]
	if st.Count != 200 {
		t.Fatalf("count = %d, want 200 (one value per NDJSON record)", st.Count)
	}
	reg := NewRegistry()
	reg.Add(zm)
	if r, ok := reg.FileRange("/nd", valuePath, "/nd/recs.json"); !ok || r.Count != 200 {
		t.Fatalf("FileRange = %+v, ok=%v", r, ok)
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
// file exactly once and produce, per path, the same zone map a dedicated
// Build would.
func TestBuildWithSharedScan(t *testing.T) {
	mem := ndjsonCorpus(2, 120)
	paths := []jsonparse.Path{
		{jsonparse.KeyStep("root"), jsonparse.MembersStep(),
			jsonparse.KeyStep("results"), jsonparse.MembersStep(), jsonparse.KeyStep("value")},
		{jsonparse.KeyStep("root"), jsonparse.MembersStep(),
			jsonparse.KeyStep("results"), jsonparse.MembersStep(), jsonparse.KeyStep("date")},
	}
	cs := &countingSource{Source: mem, opens: map[string]int{}}
	zms, err := BuildWith(cs, "/nd", paths, BuildOptions{})
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
		solo, err := Build(mem, "/nd", p)
		if err != nil {
			t.Fatal(err)
		}
		if !zms[i].Path.Equal(p) {
			t.Errorf("zms[%d].Path = %s, want %s", i, zms[i].Path, p)
		}
		for _, f := range files {
			got, want := zms[i].Files[f], solo.Files[f]
			if got.Count != want.Count || item.Compare(got.Min, want.Min) != 0 ||
				item.Compare(got.Max, want.Max) != 0 {
				t.Errorf("path %s, %s: shared %+v vs solo %+v", p, f, got, want)
			}
		}
	}
	// Multi-path builds inherit the scalar-path check.
	objPath := jsonparse.Path{jsonparse.KeyStep("root"), jsonparse.MembersStep()}
	if _, err := BuildWith(mem, "/nd", []jsonparse.Path{paths[0], objPath}, BuildOptions{}); err == nil {
		t.Error("object path must be rejected in a multi-path build")
	}
	if _, err := BuildWith(mem, "/nd", nil, BuildOptions{}); err == nil {
		t.Error("empty path list must be rejected")
	}
}
