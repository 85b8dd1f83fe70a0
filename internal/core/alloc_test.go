package core

import (
	"fmt"
	"strings"
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

// TestQ0FragmentAllocsPerRecord gates the date predicates on encoded bytes:
// Q0's fragment (DATASCAN → ASSIGN dateTime(data(value($r,"date"))) →
// SELECT on year-, month- and day-from-dateTime of it) and Q0b's column form
// (the scan projects the date strings, ASSIGN dateTime(data($r))) parse each
// date's digits in place, append the dateTime encoding, and compare its
// parts without building an item, so a run allocates at most once per
// record. The dates sweep two years in file order, so the SELECT keeps one
// record in a few hundred and the result sink, which decodes what it keeps,
// is a small part of the count.
func TestQ0FragmentAllocsPerRecord(t *testing.T) {
	cfg := gen.Default()
	cfg.Files, cfg.RecordsPerFile, cfg.SplitRecords = 8, 100, true
	cfg.YearMin, cfg.YearMax, cfg.ClusterDates = 2002, 2003, true
	docs, _, err := cfg.InMemory()
	if err != nil {
		t.Fatal(err)
	}
	records := cfg.Measurements()
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	const where = `
let $datetime := dateTime(data(%s))
where year-from-dateTime($datetime) ge 2003
  and month-from-dateTime($datetime) eq 12
  and day-from-dateTime($datetime) eq 25
return $r`
	for _, q := range []struct{ name, text string }{
		{"Q0", `for $r in collection("/sensors")("root")()("results")()` + fmt.Sprintf(where, `$r("date")`)},
		{"Q0b", `for $r in collection("/sensors")("root")()("results")()("date")` + fmt.Sprintf(where, `$r`)},
	} {
		c, err := CompileQuery(q.text, Options{Partitions: 1, Rules: AllRules()})
		if err != nil {
			t.Fatal(err)
		}
		// Fragment 0 cut after its SELECT: scan → ASSIGN → SELECT, the
		// surviving tuples collected as the result.
		f0 := *c.Job.Fragments[0]
		_, isScan := f0.Source.(hyracks.ScanSource)
		if len(c.Job.Fragments) != 1 || !isScan || len(f0.Ops) < 2 ||
			!strings.HasPrefix(f0.Ops[0].Name(), "ASSIGN") || !strings.HasPrefix(f0.Ops[1].Name(), "SELECT") {
			t.Fatalf("%s: fragment 0 is not scan → assign → select:\n%s", q.name, c.Job)
		}
		f0.Ops = f0.Ops[:2]
		job := &hyracks.Job{Fragments: []*hyracks.Fragment{&f0}}
		kept := 0
		run := func() {
			res, err := hyracks.RunPipelined(job, &hyracks.Env{Source: src, Accountant: frame.NewAccountant(0)})
			if err != nil || len(res.Rows) == 0 {
				t.Fatalf("%s fragment 0: %d rows, %v", q.name, len(res.Rows), err)
			}
			kept = len(res.Rows)
		}
		perRecord := testing.AllocsPerRun(5, run) / float64(records)
		t.Logf("%s: %d records, %d kept: %.3f allocs/record", q.name, records, kept, perRecord)
		if perRecord > 1 {
			t.Errorf("%s fragment 0 allocates %.3f times per record, want <= 1", q.name, perRecord)
		}
	}
}
