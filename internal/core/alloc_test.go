package core

import (
	"testing"

	"vxq/internal/frame"
	"vxq/internal/gen"
	"vxq/internal/hyracks"
	"vxq/internal/runtime"
)

// TestQ1FragmentAllocsPerRecord gates the tree-free record path: Q1's first
// fragment (DATASCAN → SELECT eq(value($r,"dataType"),"TMIN") → local
// GROUP-BY on value($r,"date") counting value($r,"station")) encodes each
// record straight from the token stream and evaluates the predicate, the key
// and the count on the encoded bytes, so a whole run — job start-up and one
// result row per group included — allocates at most once per record. The
// dates span one year, so the groups (at most 366, each with its own state
// and result row) are few against the 24 000 records: the gate measures the
// per-record path.
func TestQ1FragmentAllocsPerRecord(t *testing.T) {
	cfg := gen.Default()
	cfg.Files, cfg.RecordsPerFile, cfg.SplitRecords = 8, 100, true
	cfg.YearMin, cfg.YearMax = 2013, 2013
	docs, _, err := cfg.InMemory()
	if err != nil {
		t.Fatal(err)
	}
	records := cfg.Measurements()
	c, err := CompileQuery(`
for $r in collection("/sensors")("root")()("results")()
where $r("dataType") eq "TMIN"
group by $date := $r("date")
return count($r("station"))`, Options{Partitions: 2, Rules: AllRules()})
	if err != nil {
		t.Fatal(err)
	}
	// Fragment 0 alone, one partition, its local group-by rows collected
	// as the result instead of hashed to the global step.
	f0 := *c.Job.Fragments[0]
	if _, ok := f0.Source.(hyracks.ScanSource); !ok || len(f0.Ops) != 2 {
		t.Fatalf("fragment 0 is not scan → select → local group-by:\n%s", c.Job)
	}
	f0.Partitions, f0.SinkExchange = 1, -1
	job := &hyracks.Job{Fragments: []*hyracks.Fragment{&f0}}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	run := func() {
		res, err := hyracks.RunPipelined(job, &hyracks.Env{Source: src, Accountant: frame.NewAccountant(0)})
		if err != nil || len(res.Rows) == 0 {
			t.Fatalf("fragment 0: %d rows, %v", len(res.Rows), err)
		}
	}
	perRecord := testing.AllocsPerRun(5, run) / float64(records)
	t.Logf("%d records: %.3f allocs/record", records, perRecord)
	if perRecord > 1 {
		t.Errorf("Q1 fragment 0 allocates %.3f times per record, want <= 1", perRecord)
	}
}
