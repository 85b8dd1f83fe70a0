package hyracks

import (
	"fmt"
	"strings"
	"testing"

	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// testSource builds an in-memory collection of sensor-like documents.
func testSource() *runtime.MemSource {
	mk := func(entries ...string) []byte {
		return []byte(`{"root":[` + strings.Join(entries, ",") + `]}`)
	}
	rec := func(date, typ, station string, val int) string {
		return fmt.Sprintf(`{"metadata":{"count":1},"results":[{"date":%q,"dataType":%q,"station":%q,"value":%d}]}`,
			date, typ, station, val)
	}
	return &runtime.MemSource{Collections: map[string]map[string][]byte{
		"/sensors": {
			"f1.json": mk(
				rec("2013-12-25T00:00", "TMIN", "S1", 4),
				rec("2013-12-25T00:00", "TMAX", "S1", 14),
			),
			"f2.json": mk(
				rec("2013-12-25T00:00", "TMIN", "S2", -2),
				rec("2013-12-26T00:00", "TMIN", "S3", 1),
			),
			"f3.json": mk(
				rec("2013-12-26T00:00", "TMIN", "S1", 0),
				rec("2013-12-26T00:00", "TMAX", "S1", 9),
			),
		},
	}}
}

func measurementsPath() jsonparse.Path {
	return jsonparse.Path{
		jsonparse.KeyStep("root"), jsonparse.MembersStep(),
		jsonparse.KeyStep("results"), jsonparse.MembersStep(),
	}
}

func col(i int) runtime.Evaluator { return runtime.ColumnEval{Col: i} }

func constStr(s string) runtime.Evaluator {
	return runtime.ConstEval{Seq: item.Single(item.String(s))}
}

func call(fn string, args ...runtime.Evaluator) runtime.Evaluator {
	return runtime.CallEval{Fn: runtime.MustFunction(fn), Args: args}
}

// runBoth executes the job with both executors and checks they agree; it
// returns the (sorted) staged result.
func runBoth(t *testing.T, job *Job, env func() *Env) *Result {
	t.Helper()
	staged, err := RunStaged(job, env())
	if err != nil {
		t.Fatalf("RunStaged: %v", err)
	}
	piped, err := RunPipelined(job, env())
	if err != nil {
		t.Fatalf("RunPipelined: %v", err)
	}
	staged.SortRows()
	piped.SortRows()
	if len(staged.Rows) != len(piped.Rows) {
		t.Fatalf("staged %d rows, pipelined %d rows", len(staged.Rows), len(piped.Rows))
	}
	for i := range staged.Rows {
		if len(staged.Rows[i]) != len(piped.Rows[i]) {
			t.Fatalf("row %d arity mismatch", i)
		}
		for j := range staged.Rows[i] {
			if !item.EqualSeq(staged.Rows[i][j], piped.Rows[i][j]) {
				t.Fatalf("row %d field %d: staged %s, pipelined %s", i, j,
					item.JSONSeq(staged.Rows[i][j]), item.JSONSeq(piped.Rows[i][j]))
			}
		}
	}
	return staged
}

func envFactory(src runtime.Source) func() *Env {
	return func() *Env { return &Env{Source: src} }
}

// scanJob builds a single-fragment scan -> ops -> collector job.
func scanJob(partitions int, path jsonparse.Path, ops ...OpSpec) *Job {
	return &Job{Fragments: []*Fragment{{
		ID:           0,
		Source:       ScanSource{Collection: "/sensors", Project: path},
		Ops:          ops,
		Partitions:   partitions,
		SinkExchange: -1,
	}}}
}

func TestScanProjectsMeasurements(t *testing.T) {
	res := runBoth(t, scanJob(1, measurementsPath()), envFactory(testSource()))
	if len(res.Rows) != 6 {
		t.Fatalf("got %d measurements, want 6", len(res.Rows))
	}
	if res.Stats.FilesRead != 3 || res.Stats.BytesRead == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestScanPartitionsSplitFiles(t *testing.T) {
	for _, p := range []int{1, 2, 3} {
		res := runBoth(t, scanJob(p, measurementsPath()), envFactory(testSource()))
		if len(res.Rows) != 6 {
			t.Errorf("partitions=%d: got %d rows, want 6", p, len(res.Rows))
		}
	}
}

func TestScanWholeDocuments(t *testing.T) {
	res := runBoth(t, scanJob(1, nil), envFactory(testSource()))
	if len(res.Rows) != 3 {
		t.Fatalf("got %d documents, want 3", len(res.Rows))
	}
	doc, err := res.Rows[0][0].One()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Kind() != item.KindObject {
		t.Errorf("document kind = %v", doc.Kind())
	}
}

func TestSelectFilter(t *testing.T) {
	// Keep only TMIN measurements.
	cond := call("eq", call("value", col(0), constStr("dataType")), constStr("TMIN"))
	res := runBoth(t, scanJob(2, measurementsPath(), &SelectSpec{Cond: cond}), envFactory(testSource()))
	if len(res.Rows) != 4 {
		t.Fatalf("got %d TMIN rows, want 4", len(res.Rows))
	}
}

func TestAssignAddsField(t *testing.T) {
	spec := &AssignSpec{Evals: []runtime.Evaluator{call("value", col(0), constStr("station"))}}
	res := runBoth(t, scanJob(1, measurementsPath(), spec), envFactory(testSource()))
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row) != 2 {
			t.Fatalf("arity = %d, want 2", len(row))
		}
		st, err := row[1].One()
		if err != nil {
			t.Fatal(err)
		}
		if st.Kind() != item.KindString {
			t.Errorf("station kind = %v", st.Kind())
		}
	}
}

func TestUnnestSplitsSequence(t *testing.T) {
	// Scan whole docs, then unnest root array, then unnest results.
	ops := []OpSpec{
		&UnnestSpec{Expr: call("keys-or-members", call("value", col(0), constStr("root")))},
		&UnnestSpec{Expr: call("keys-or-members", call("value", col(1), constStr("results")))},
		&ProjectSpec{Cols: []int{2}},
	}
	res := runBoth(t, scanJob(1, nil, ops...), envFactory(testSource()))
	if len(res.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(res.Rows))
	}
}

func TestProjectOutOfRange(t *testing.T) {
	_, err := RunStaged(scanJob(1, measurementsPath(), &ProjectSpec{Cols: []int{7}}), &Env{Source: testSource()})
	if err == nil {
		t.Fatal("expected project error")
	}
}

func TestAggregateCount(t *testing.T) {
	ops := []OpSpec{
		&AggregateSpec{Aggs: []AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: col(0)}}},
	}
	res := runBoth(t, scanJob(1, measurementsPath(), ops...), envFactory(testSource()))
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !item.EqualSeq(res.Rows[0][0], item.Single(item.Number(6))) {
		t.Errorf("count = %s", item.JSONSeq(res.Rows[0][0]))
	}
}

func TestGroupByDateCounts(t *testing.T) {
	gb := &GroupBySpec{
		Keys: []runtime.Evaluator{call("value", col(0), constStr("date"))},
		Aggs: []AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: call("value", col(0), constStr("station"))}},
	}
	res := runBoth(t, scanJob(1, measurementsPath(), gb), envFactory(testSource()))
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Rows))
	}
	counts := map[string]float64{}
	for _, row := range res.Rows {
		d, _ := row[0].One()
		c, _ := row[1].One()
		counts[string(d.(item.String))] = float64(c.(item.Number))
	}
	if counts["2013-12-25T00:00"] != 3 || counts["2013-12-26T00:00"] != 3 {
		t.Errorf("counts = %v", counts)
	}
}

// twoStepGroupByJob builds: scan -> local groupby -> hash exchange -> global
// groupby -> collector, the two-step aggregation scheme of §4.3.
func twoStepGroupByJob(scanParts, aggParts int) *Job {
	local := &GroupBySpec{
		Keys: []runtime.Evaluator{call("value", col(0), constStr("date"))},
		Aggs: []AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: call("value", col(0), constStr("station"))}},
		Desc: "local",
	}
	global := &GroupBySpec{
		Keys: []runtime.Evaluator{col(0)},
		Aggs: []AggDef{{Fn: runtime.MustAgg("agg-sum"), Arg: col(1)}},
		Desc: "global",
	}
	return &Job{
		Fragments: []*Fragment{
			{ID: 0, Source: ScanSource{Collection: "/sensors", Project: measurementsPath()},
				Ops: []OpSpec{local}, Partitions: scanParts, SinkExchange: 0},
			{ID: 1, Source: ExchangeSource{Exchange: 0},
				Ops: []OpSpec{global}, Partitions: aggParts, SinkExchange: -1},
		},
		Exchanges: []*Exchange{
			{ID: 0, Kind: ExchangeHash, Keys: []runtime.Evaluator{col(0)}, ConsumerPartitions: aggParts},
		},
	}
}

func TestTwoStepGroupByAcrossPartitions(t *testing.T) {
	for _, cfg := range [][2]int{{1, 1}, {2, 2}, {3, 2}, {2, 3}} {
		res := runBoth(t, twoStepGroupByJob(cfg[0], cfg[1]), envFactory(testSource()))
		if len(res.Rows) != 2 {
			t.Fatalf("cfg %v: groups = %d, want 2", cfg, len(res.Rows))
		}
		for _, row := range res.Rows {
			c, _ := row[1].One()
			if float64(c.(item.Number)) != 3 {
				t.Errorf("cfg %v: group %s count = %s", cfg,
					item.JSONSeq(row[0]), item.JSONSeq(row[1]))
			}
		}
		if res.Stats.TuplesShuffled == 0 {
			t.Errorf("cfg %v: expected shuffled tuples", cfg)
		}
	}
}

// joinJob builds the Q2 shape: two scans feed hash exchanges on
// (station,date); a join fragment matches TMIN with TMAX rows and computes
// value differences.
func joinJob(parts int) *Job {
	filter := func(typ string) OpSpec {
		return &SelectSpec{Cond: call("eq", call("value", col(0), constStr("dataType")), constStr(typ))}
	}
	keys := func() []runtime.Evaluator {
		return []runtime.Evaluator{
			call("value", col(0), constStr("station")),
			call("value", col(0), constStr("date")),
		}
	}
	diff := &AssignSpec{Evals: []runtime.Evaluator{call("sub",
		call("value", col(1), constStr("value")),
		call("value", col(0), constStr("value")),
	)}}
	avg := &AggregateSpec{Aggs: []AggDef{{Fn: runtime.MustAgg("agg-avg"), Arg: col(2)}}}
	return &Job{
		Fragments: []*Fragment{
			{ID: 0, Source: ScanSource{Collection: "/sensors", Project: measurementsPath()},
				Ops: []OpSpec{filter("TMIN")}, Partitions: parts, SinkExchange: 0},
			{ID: 1, Source: ScanSource{Collection: "/sensors", Project: measurementsPath()},
				Ops: []OpSpec{filter("TMAX")}, Partitions: parts, SinkExchange: 1},
			{ID: 2, Source: JoinSource{Build: 0, Probe: 1,
				Spec: &JoinSpec{BuildKeys: keys(), ProbeKeys: keys()}},
				Ops: []OpSpec{diff}, Partitions: parts, SinkExchange: 2},
			{ID: 3, Source: ExchangeSource{Exchange: 2},
				Ops: []OpSpec{avg}, Partitions: 1, SinkExchange: -1},
		},
		Exchanges: []*Exchange{
			{ID: 0, Kind: ExchangeHash, Keys: keys(), ConsumerPartitions: parts},
			{ID: 1, Kind: ExchangeHash, Keys: keys(), ConsumerPartitions: parts},
			{ID: 2, Kind: ExchangeMerge, ConsumerPartitions: 1},
		},
	}
}

func TestHashJoinTemperatureDiff(t *testing.T) {
	// Matches: S1@12-25 (14-4=10), S1@12-26 (9-0=9). Average = 9.5.
	for _, parts := range []int{1, 2, 3} {
		res := runBoth(t, joinJob(parts), envFactory(testSource()))
		if len(res.Rows) != 1 {
			t.Fatalf("parts=%d: rows = %d", parts, len(res.Rows))
		}
		if !item.EqualSeq(res.Rows[0][0], item.Single(item.Number(9.5))) {
			t.Errorf("parts=%d: avg = %s, want 9.5", parts, item.JSONSeq(res.Rows[0][0]))
		}
	}
}

func TestSubplanCountPerTuple(t *testing.T) {
	// Scan whole docs; for each doc, a subplan counts the members of its
	// root array: unnest root members, aggregate count.
	nested := []OpSpec{
		&UnnestSpec{Expr: call("keys-or-members", call("value", col(0), constStr("root")))},
		&AggregateSpec{Aggs: []AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: col(1)}}},
	}
	sp := &SubplanSpec{Nested: nested}
	res := runBoth(t, scanJob(1, nil, sp, &ProjectSpec{Cols: []int{1}}), envFactory(testSource()))
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		c, _ := row[0].One()
		if float64(c.(item.Number)) != 2 {
			t.Errorf("per-doc count = %s, want 2", item.JSONSeq(row[0]))
		}
	}
}

func TestEmptyTupleSourceAssign(t *testing.T) {
	// The unoptimized leaf: ETS -> ASSIGN collection(...) -> UNNEST iterate.
	job := &Job{Fragments: []*Fragment{{
		ID:     0,
		Source: ETSSource{},
		Ops: []OpSpec{
			&AssignSpec{Evals: []runtime.Evaluator{call("collection", constStr("/sensors"))}},
			&UnnestSpec{Expr: call("iterate", col(0))},
			&ProjectSpec{Cols: []int{1}},
		},
		Partitions:   1,
		SinkExchange: -1,
	}}}
	res := runBoth(t, job, envFactory(testSource()))
	if len(res.Rows) != 3 {
		t.Fatalf("docs = %d, want 3", len(res.Rows))
	}
}

func TestOversizedTupleFlowsThrough(t *testing.T) {
	// A tiny frame size forces every document tuple to be oversized; the
	// engine must still produce correct results.
	env := func() *Env { return &Env{Source: testSource(), FrameSize: 64} }
	res := runBoth(t, scanJob(1, nil), env)
	if len(res.Rows) != 3 {
		t.Fatalf("docs = %d, want 3", len(res.Rows))
	}
}

func TestMemoryAccounting(t *testing.T) {
	envSmallTuples := &Env{Source: testSource()}
	if _, err := RunStaged(scanJob(1, measurementsPath()), envSmallTuples); err != nil {
		t.Fatal(err)
	}
	envWholeDocs := &Env{Source: testSource()}
	if _, err := RunStaged(scanJob(1, nil), envWholeDocs); err != nil {
		t.Fatal(err)
	}
	small := envSmallTuples.Accountant.Peak()
	whole := envWholeDocs.Accountant.Peak()
	if small <= 0 || whole <= 0 {
		t.Fatalf("peaks: small=%d whole=%d", small, whole)
	}
	if whole <= small {
		t.Errorf("whole-document tuples should peak higher: small=%d whole=%d", small, whole)
	}
}

func TestScanErrorPropagation(t *testing.T) {
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{
		"/sensors": {"bad.json": []byte(`{"root": [ {"x": `)},
	}}
	if _, err := RunStaged(scanJob(1, measurementsPath()), &Env{Source: src}); err == nil {
		t.Fatal("staged: expected parse error")
	}
	if _, err := RunPipelined(scanJob(1, measurementsPath()), &Env{Source: src}); err == nil {
		t.Fatal("pipelined: expected parse error")
	}
}

func TestErrorInDownstreamFragmentPipelined(t *testing.T) {
	// The consumer fragment fails (bad column); the producer must unblock
	// and the job must return the error rather than deadlock.
	job := twoStepGroupByJob(2, 2)
	job.Fragments[1].Ops = []OpSpec{&ProjectSpec{Cols: []int{42}}}
	if _, err := RunPipelined(job, &Env{Source: testSource()}); err == nil {
		t.Fatal("expected error")
	}
}

func TestUnknownCollection(t *testing.T) {
	job := &Job{Fragments: []*Fragment{{
		ID: 0, Source: ScanSource{Collection: "/nope"}, Partitions: 1, SinkExchange: -1,
	}}}
	if _, err := RunStaged(job, &Env{Source: testSource()}); err == nil {
		t.Fatal("expected unknown-collection error")
	}
}

func TestValidateRejectsBadJobs(t *testing.T) {
	cases := map[string]*Job{
		"no collector": {Fragments: []*Fragment{{ID: 0, Source: ETSSource{}, Partitions: 1, SinkExchange: 0}},
			Exchanges: []*Exchange{{ID: 0, Kind: ExchangeMerge, ConsumerPartitions: 1}}},
		"two collectors": {Fragments: []*Fragment{
			{ID: 0, Source: ETSSource{}, Partitions: 1, SinkExchange: -1},
			{ID: 1, Source: ETSSource{}, Partitions: 1, SinkExchange: -1},
		}},
		"zero partitions": {Fragments: []*Fragment{{ID: 0, Source: ETSSource{}, Partitions: 0, SinkExchange: -1}}},
		"consume before produce": {Fragments: []*Fragment{
			{ID: 0, Source: ExchangeSource{Exchange: 0}, Partitions: 1, SinkExchange: -1},
		}, Exchanges: []*Exchange{{ID: 0, Kind: ExchangeMerge, ConsumerPartitions: 1}}},
		"unknown sink": {Fragments: []*Fragment{{ID: 0, Source: ETSSource{}, Partitions: 1, SinkExchange: 9}}},
		"partition mismatch": {Fragments: []*Fragment{
			{ID: 0, Source: ETSSource{}, Partitions: 1, SinkExchange: 0},
			{ID: 1, Source: ExchangeSource{Exchange: 0}, Partitions: 3, SinkExchange: -1},
		}, Exchanges: []*Exchange{{ID: 0, Kind: ExchangeMerge, ConsumerPartitions: 1}}},
		"duplicate exchange": {Fragments: []*Fragment{
			{ID: 0, Source: ETSSource{}, Partitions: 1, SinkExchange: 0},
			{ID: 1, Source: ExchangeSource{Exchange: 0}, Partitions: 1, SinkExchange: -1},
		}, Exchanges: []*Exchange{
			{ID: 0, Kind: ExchangeMerge, ConsumerPartitions: 1},
			{ID: 0, Kind: ExchangeMerge, ConsumerPartitions: 1},
		}},
	}
	for name, job := range cases {
		if err := job.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", name)
		}
	}
}

func TestJobString(t *testing.T) {
	s := twoStepGroupByJob(2, 2).String()
	for _, want := range []string{"fragment 0", "GROUP-BY local", "DATASCAN", "RESULT", "HASH"} {
		if !strings.Contains(s, want) {
			t.Errorf("job string missing %q:\n%s", want, s)
		}
	}
}

func TestTaskTimesRecorded(t *testing.T) {
	res, err := RunStaged(twoStepGroupByJob(2, 2), &Env{Source: testSource(), Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := profiledTasks(res.Profile); n != 4 {
		t.Errorf("profiled tasks = %d, want 4 (2+2 partitions)", n)
	}
	for _, sp := range res.Profile.Spans {
		if sp.EndNS < sp.StartNS {
			t.Errorf("span %s f%d/p%d ends before it starts", sp.Name, sp.Fragment, sp.Partition)
		}
	}
}

func TestSortOperator(t *testing.T) {
	// Sort measurements by value descending, then station ascending.
	ops := []OpSpec{
		&AssignSpec{Evals: []runtime.Evaluator{call("value", col(0), constStr("value"))}},
		&AssignSpec{Evals: []runtime.Evaluator{call("value", col(0), constStr("station"))}},
		&SortSpec{Keys: []SortDef{
			{Key: col(1), Desc: true},
			{Key: col(2)},
		}},
		&ProjectSpec{Cols: []int{1, 2}},
	}
	res, err := RunStaged(scanJob(1, measurementsPath(), ops...), &Env{Source: testSource()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	prevVal := 1e18
	for _, row := range res.Rows {
		v, _ := row[0].One()
		f := float64(v.(item.Number))
		if f > prevVal {
			t.Fatalf("not descending: %v after %v", f, prevVal)
		}
		prevVal = f
	}
	if (&SortSpec{Desc: "x"}).Name() == "" {
		t.Error("sort name")
	}
}

func TestScanFilterAdmits(t *testing.T) {
	rng := func(lo, hi float64) runtime.FileRange {
		return runtime.FileRange{Min: item.Number(lo), Max: item.Number(hi), Count: 1}
	}
	f := &ScanFilter{Lo: item.Number(10), Hi: item.Number(20)}
	cases := []struct {
		r    runtime.FileRange
		want bool
	}{
		{rng(0, 5), false},   // entirely below
		{rng(25, 30), false}, // entirely above
		{rng(5, 15), true},   // overlaps low
		{rng(15, 25), true},  // overlaps high
		{rng(12, 13), true},  // inside
		{rng(0, 100), true},  // covers
		{rng(0, 10), true},   // touches inclusive low
		{rng(20, 30), true},  // touches inclusive high
		{runtime.FileRange{}, false},
	}
	for i, c := range cases {
		if got := f.Admits(c.r); got != c.want {
			t.Errorf("case %d: Admits = %v, want %v", i, got, c.want)
		}
	}
	strict := &ScanFilter{Lo: item.Number(10), LoStrict: true, Hi: item.Number(20), HiStrict: true}
	if strict.Admits(rng(0, 10)) {
		t.Error("strict low bound must exclude touching range")
	}
	if strict.Admits(rng(20, 30)) {
		t.Error("strict high bound must exclude touching range")
	}
	if !strings.Contains(strict.String(), "(") || !strings.Contains(strict.String(), ")") {
		t.Errorf("strict filter rendering = %s", strict.String())
	}
	open := &ScanFilter{Lo: item.Number(1)}
	if !open.Admits(rng(0, 100)) {
		t.Error("half-open filter")
	}
}

func TestSourceAndOpNames(t *testing.T) {
	names := []string{
		ETSSource{}.sourceName(),
		ScanSource{Collection: "/c"}.sourceName(),
		ScanSource{Collection: "/c", Filter: &ScanFilter{Lo: item.Number(1)}}.sourceName(),
		ExchangeSource{Exchange: 3}.sourceName(),
		JoinSource{Build: 0, Probe: 1, Spec: &JoinSpec{}}.sourceName(),
		(&AssignSpec{}).Name(),
		(&SelectSpec{}).Name(),
		(&UnnestSpec{}).Name(),
		(&AggregateSpec{}).Name(),
		(&GroupBySpec{}).Name(),
		(&SubplanSpec{}).Name(),
		ExchangeOneToOne.String(),
		ExchangeKind(99).String(),
	}
	for i, n := range names {
		if n == "" {
			t.Errorf("name %d empty", i)
		}
	}
}

func TestFusedOutColsOutOfRange(t *testing.T) {
	job := scanJob(1, measurementsPath(), &AssignSpec{
		Evals:   []runtime.Evaluator{col(0)},
		OutCols: []int{99},
	})
	if _, err := RunStaged(job, &Env{Source: testSource()}); err == nil {
		t.Fatal("fused project out of range must fail")
	}
}

func TestOneToOneExchange(t *testing.T) {
	// A 1:1 exchange between two fragments with matching partition counts.
	job := &Job{
		Fragments: []*Fragment{
			{ID: 0, Source: ScanSource{Collection: "/sensors", Project: measurementsPath()},
				Partitions: 2, SinkExchange: 0},
			{ID: 1, Source: ExchangeSource{Exchange: 0},
				Ops:        []OpSpec{&SelectSpec{Cond: call("eq", call("value", col(0), constStr("dataType")), constStr("TMIN"))}},
				Partitions: 2, SinkExchange: -1},
		},
		Exchanges: []*Exchange{{ID: 0, Kind: ExchangeOneToOne, ConsumerPartitions: 2}},
	}
	res := runBoth(t, job, envFactory(testSource()))
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
}

func TestJoinBuildSideErrorPropagates(t *testing.T) {
	// The build side fails (bad expression); both executors must surface
	// the error without deadlocking.
	keys := []runtime.Evaluator{col(7)} // out of range at eval time
	job := &Job{
		Fragments: []*Fragment{
			{ID: 0, Source: ScanSource{Collection: "/sensors", Project: measurementsPath()},
				Partitions: 1, SinkExchange: 0},
			{ID: 1, Source: ScanSource{Collection: "/sensors", Project: measurementsPath()},
				Partitions: 1, SinkExchange: 1},
			{ID: 2, Source: JoinSource{Build: 0, Probe: 1,
				Spec: &JoinSpec{BuildKeys: keys, ProbeKeys: []runtime.Evaluator{col(0)}}},
				Partitions: 1, SinkExchange: -1},
		},
		Exchanges: []*Exchange{
			{ID: 0, Kind: ExchangeMerge, ConsumerPartitions: 1},
			{ID: 1, Kind: ExchangeMerge, ConsumerPartitions: 1},
		},
	}
	if _, err := RunStaged(job, &Env{Source: testSource()}); err == nil {
		t.Fatal("staged: expected build-side error")
	}
	if _, err := RunPipelined(job, &Env{Source: testSource()}); err == nil {
		t.Fatal("pipelined: expected build-side error")
	}
}

func TestManyPartitionsStress(t *testing.T) {
	// More partitions than files: some partitions are empty; pipelined mode
	// runs 16 goroutine tasks.
	res := runBoth(t, twoStepGroupByJob(16, 16), envFactory(testSource()))
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Rows))
	}
}

func TestGroupByOnEmptyInput(t *testing.T) {
	cond := call("eq", call("value", col(0), constStr("dataType")), constStr("NO-SUCH-TYPE"))
	gb := &GroupBySpec{
		Keys: []runtime.Evaluator{call("value", col(0), constStr("date"))},
		Aggs: []AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: col(0)}},
	}
	res := runBoth(t, scanJob(1, measurementsPath(), &SelectSpec{Cond: cond}, gb), envFactory(testSource()))
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(res.Rows))
	}
}

func TestAggregateOnEmptyInputEmitsOneTuple(t *testing.T) {
	cond := call("eq", call("value", col(0), constStr("dataType")), constStr("NO-SUCH-TYPE"))
	agg := &AggregateSpec{Aggs: []AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: col(0)}}}
	res := runBoth(t, scanJob(1, measurementsPath(), &SelectSpec{Cond: cond}, agg), envFactory(testSource()))
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (count of empty input)", len(res.Rows))
	}
	if !item.EqualSeq(res.Rows[0][0], item.Single(item.Number(0))) {
		t.Errorf("count = %s, want 0", item.JSONSeq(res.Rows[0][0]))
	}
}
