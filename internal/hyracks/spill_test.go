package hyracks

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// spillBudget is the per-operator budget the out-of-core tests run under —
// small enough that bigSource exceeds it at least 4x in every blocking
// operator, which is the acceptance bar for the grace-hash/merge-sort paths.
const spillBudget int64 = 4 << 10

// bigSource generates 2n sensor records (a TMIN/TMAX pair per index, unique
// (station, date) per pair, integer values so every aggregate is exact in
// float64 regardless of summation order). At n=400 the collection is ~100 KiB
// of raw JSON — far beyond the 4 KiB test budget.
func bigSource(n int) *runtime.MemSource {
	files := map[string][]byte{}
	var entries []string
	file := 0
	flush := func() {
		if len(entries) == 0 {
			return
		}
		doc := []byte(`{"root":[` + joinStrings(entries) + `]}`)
		files[fmt.Sprintf("f%03d.json", file)] = doc
		file++
		entries = entries[:0]
	}
	rec := func(date, typ, station string, val int) string {
		return fmt.Sprintf(`{"metadata":{"count":1},"results":[{"date":%q,"dataType":%q,"station":%q,"value":%d}]}`,
			date, typ, station, val)
	}
	for i := 0; i < n; i++ {
		station := fmt.Sprintf("S%02d", i%23)
		date := fmt.Sprintf("2014-01-%03d", i)
		entries = append(entries,
			rec(date, "TMIN", station, i%50-10),
			rec(date, "TMAX", station, i%60+5))
		if len(entries) >= 40 {
			flush()
		}
	}
	flush()
	return &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": files}}
}

func joinStrings(ss []string) string {
	var b bytes.Buffer
	for i, s := range ss {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s)
	}
	return b.String()
}

// bigGroupBy groups on (date, station) — one group per generated pair, so the
// hash table grows far past the test budget — counting rows and summing the
// integer values.
func bigGroupBy() *GroupBySpec {
	return &GroupBySpec{
		Keys: []runtime.Evaluator{
			call("value", col(0), constStr("date")),
			call("value", col(0), constStr("station")),
		},
		Aggs: []AggDef{
			{Fn: runtime.MustAgg("agg-count"), Arg: col(0)},
			{Fn: runtime.MustAgg("agg-sum"), Arg: call("value", col(0), constStr("value"))},
		},
	}
}

// bigSortOps assigns (station, value) and sorts by them; the buffered rows
// blow the budget and force external runs.
func bigSortOps() []OpSpec {
	return []OpSpec{
		&AssignSpec{Evals: []runtime.Evaluator{
			call("value", col(0), constStr("station")),
			call("value", col(0), constStr("value")),
		}},
		&SortSpec{Keys: []SortDef{{Key: col(1)}, {Key: col(2), Desc: true}}},
		&ProjectSpec{Cols: []int{1, 2}},
	}
}

// bigJoinJob is joinJob without the trailing average: TMIN rows join TMAX
// rows on (station, date) and the per-match differences are collected
// directly, so the spilled and in-memory row sets can be compared
// byte-for-byte after canonical sorting.
func bigJoinJob(parts int) *Job {
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
	return &Job{
		Fragments: []*Fragment{
			{ID: 0, Source: ScanSource{Collection: "/sensors", Project: measurementsPath()},
				Ops: []OpSpec{filter("TMIN")}, Partitions: parts, SinkExchange: 0},
			{ID: 1, Source: ScanSource{Collection: "/sensors", Project: measurementsPath()},
				Ops: []OpSpec{filter("TMAX")}, Partitions: parts, SinkExchange: 1},
			{ID: 2, Source: JoinSource{Build: 0, Probe: 1,
				Spec: &JoinSpec{BuildKeys: keys(), ProbeKeys: keys()}},
				Ops: []OpSpec{diff, &ProjectSpec{Cols: []int{2}}}, Partitions: parts, SinkExchange: 2},
			{ID: 3, Source: ExchangeSource{Exchange: 2}, Partitions: 1, SinkExchange: -1},
		},
		Exchanges: []*Exchange{
			{ID: 0, Kind: ExchangeHash, Keys: keys(), ConsumerPartitions: parts},
			{ID: 1, Kind: ExchangeHash, Keys: keys(), ConsumerPartitions: parts},
			{ID: 2, Kind: ExchangeMerge, ConsumerPartitions: 1},
		},
	}
}

// checkNoSpillFiles fails if the dedicated spill directory still holds any
// file — on every exit path the operators must remove their runs and temp
// files.
func checkNoSpillFiles(t *testing.T, name, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, e := range ents {
		t.Errorf("%s: spill file left behind: %s", name, e.Name())
	}
}

// sameRowsBytes requires two (already canonically sorted) results to be
// byte-identical under the canonical item encoding.
func sameRowsBytes(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows, want %d", name, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if len(want.Rows[i]) != len(got.Rows[i]) {
			t.Fatalf("%s: row %d arity %d, want %d", name, i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range want.Rows[i] {
			wb := item.EncodeSeq(nil, want.Rows[i][j])
			gb := item.EncodeSeq(nil, got.Rows[i][j])
			if !bytes.Equal(wb, gb) {
				t.Fatalf("%s: row %d field %d not byte-identical: want %s, got %s",
					name, i, j, item.JSONSeq(want.Rows[i][j]), item.JSONSeq(got.Rows[i][j]))
			}
		}
	}
}

// roomyBudget is a per-operator budget no test table ever reaches: the
// operators run their out-of-core code path with zero waves.
const roomyBudget = 64 << 20

// runSpillDiff is the acceptance harness: the job runs unbudgeted in memory,
// then under budget with both schedulers. The budgeted runs must produce
// byte-identical rows, return the accountant to zero, and leave the spill
// directory empty. want is the spill counters of the staged run (which is
// deterministic) recorded at the commit before the in-memory and spilled
// operator paths were merged into one wave loop — the algorithm is pinned,
// not re-derived. The pipelined run deals morsels by stealing, so it is only
// required to spill when want does. A zero want is a budget that is never
// reached: nothing may spill and, staged, the high-water equals the
// unbudgeted run's — the zero-wave path charges no spill buffers.
func runSpillDiff(t *testing.T, name string, job *Job, src *runtime.MemSource, budget int64, want spillCounts) {
	t.Helper()
	plain, err := RunStaged(job, &Env{Source: src})
	if err != nil {
		t.Fatalf("%s: in-memory run: %v", name, err)
	}
	plain.SortRows()
	roomy := want == spillCounts{}
	if !roomy && plain.Stats.BytesRead < 4*budget {
		t.Fatalf("%s: input %d bytes is under 4x the %d budget — test data too small",
			name, plain.Stats.BytesRead, budget)
	}
	for _, mode := range []struct {
		name string
		run  func(*Job, *Env) (*Result, error)
	}{{"staged", RunStaged}, {"pipelined", RunPipelined}} {
		dir := t.TempDir()
		acct := frame.NewAccountant(0)
		env := &Env{Source: src, Accountant: acct,
			OpMemoryBudget: budget, SpillDir: dir, SpillPartitions: 4}
		res, err := mode.run(job, env)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, mode.name, err)
		}
		res.SortRows()
		sameRowsBytes(t, name+"/"+mode.name, plain, res)
		got := spillCounts{res.Stats.SpilledBytes, res.Stats.SpillPartitions, res.Stats.SpillWaves}
		switch {
		case mode.name == "staged" || roomy:
			if got != want {
				t.Errorf("%s/%s: spill counters (bytes, partitions, waves) = %+v, want %+v", name, mode.name, got, want)
			}
		case got.bytes <= 0 || got.parts <= 0 || got.waves <= 0:
			t.Errorf("%s/%s: spill counters = %+v, want all > 0 (budget never hit?)", name, mode.name, got)
		}
		if roomy && mode.name == "staged" && res.PeakMemory != plain.PeakMemory {
			t.Errorf("%s/staged: PeakMemory = %d under a budget never reached, want the unbudgeted %d",
				name, res.PeakMemory, plain.PeakMemory)
		}
		if cur := acct.Current(); cur != 0 {
			t.Errorf("%s/%s: accountant balance = %d after clean end, want 0", name, mode.name, cur)
		}
		checkNoSpillFiles(t, name+"/"+mode.name, dir)
	}
}

func TestSpillGroupByDifferential(t *testing.T) {
	src := bigSource(400)
	runSpillDiff(t, "group-by-1p", scanJob(1, measurementsPath(), bigGroupBy()), src, spillBudget, spillCounts{275434, 565, 292})
	runSpillDiff(t, "group-by-2p", scanJob(2, measurementsPath(), bigGroupBy()), src, spillBudget, spillCounts{249137, 668, 355})
	runSpillDiff(t, "group-by-2p-roomy", scanJob(2, measurementsPath(), bigGroupBy()), src, roomyBudget, spillCounts{})
}

func TestSpillTwoStepGroupByDifferential(t *testing.T) {
	// The standard two-step shape groups by date; bigSource gives every pair a
	// distinct date, so both the local and the global tables exceed budget.
	src := bigSource(400)
	runSpillDiff(t, "two-step-gby", twoStepGroupByJob(2, 2), src, spillBudget, spillCounts{324883, 973, 552})
	runSpillDiff(t, "two-step-gby-roomy", twoStepGroupByJob(2, 2), src, roomyBudget, spillCounts{})
}

func TestSpillSortDifferential(t *testing.T) {
	src := bigSource(400)
	runSpillDiff(t, "sort-1p", scanJob(1, measurementsPath(), bigSortOps()...), src, spillBudget, spillCounts{82400, 3, 3})
	runSpillDiff(t, "sort-2p", scanJob(2, measurementsPath(), bigSortOps()...), src, spillBudget, spillCounts{82400, 4, 4})
	runSpillDiff(t, "sort-2p-roomy", scanJob(2, measurementsPath(), bigSortOps()...), src, roomyBudget, spillCounts{})
}

func TestSpillJoinDifferential(t *testing.T) {
	src := bigSource(400)
	runSpillDiff(t, "join-1p", bigJoinJob(1), src, spillBudget, spillCounts{310210, 1012, 261})
	runSpillDiff(t, "join-2p", bigJoinJob(2), src, spillBudget, spillCounts{310210, 1012, 262})
	runSpillDiff(t, "join-2p-roomy", bigJoinJob(2), src, roomyBudget, spillCounts{})
}

// TestSpillSortStability: external merge sort must be byte-identical to the
// in-memory stable sort, including the ORDER of duplicate-key rows. The sort
// key (station) has 23 distinct values over 800 rows, so runs are full of
// ties; each row's payload (its unique date) exposes any reordering. A single
// partition end to end makes row order deterministic, so the results compare
// positionally without canonical sorting.
func TestSpillSortStability(t *testing.T) {
	src := bigSource(400)
	job := func() *Job {
		return scanJob(1, measurementsPath(),
			&AssignSpec{Evals: []runtime.Evaluator{
				call("value", col(0), constStr("station")),
				call("value", col(0), constStr("date")),
			}},
			&SortSpec{Keys: []SortDef{{Key: col(1)}}},
			&ProjectSpec{Cols: []int{1, 2}})
	}
	plain, err := RunStaged(job(), &Env{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spilled, err := RunStaged(job(), &Env{Source: src,
		OpMemoryBudget: spillBudget, SpillDir: dir, SpillPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Stats.SpilledBytes <= 0 {
		t.Fatalf("SpilledBytes = %d, want > 0", spilled.Stats.SpilledBytes)
	}
	// No SortRows here: positional comparison checks stability itself.
	sameRowsBytes(t, "sort-stability", plain, spilled)
	checkNoSpillFiles(t, "sort-stability", dir)
}

// TestSpillEagerModeNeverSpills: the eager reference mode keeps decoded
// items, which cannot round-trip through raw-byte spill files; budgets must
// be ignored there rather than corrupt results.
func TestSpillEagerModeNeverSpills(t *testing.T) {
	src := bigSource(100)
	res, err := RunStaged(scanJob(1, measurementsPath(), bigGroupBy()),
		&Env{Source: src, EagerReference: true,
			OpMemoryBudget: spillBudget, SpillDir: t.TempDir(), SpillPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpilledBytes != 0 {
		t.Errorf("eager mode spilled %d bytes, want 0", res.Stats.SpilledBytes)
	}
	if len(res.Rows) != 100 {
		t.Errorf("groups = %d, want 100", len(res.Rows))
	}
}

// TestSpillHygieneAndBalanceOnError injects failures downstream of each
// spilling operator (an out-of-range project fails the first emitted tuple,
// after runs already exist on disk) and mid-scan (a corrupt file aborts the
// input stream, mid-spill: partition writers are open). Both schedulers must
// surface the error, remove every spill file, and return the accountant to
// zero — which includes every pooled frame, charged from Get until Put. In
// pipelined mode the failure also cancels sibling tasks mid-flight, which is
// the runner's cancellation path.
func TestSpillHygieneAndBalanceOnError(t *testing.T) {
	src := bigSource(400)
	boom := &ProjectSpec{Cols: []int{42}}
	joinFail := bigJoinJob(2)
	joinFail.Fragments[2].Ops = []OpSpec{boom}
	corrupt := bigSource(400)
	corrupt.Collections["/sensors"]["zzz-corrupt.json"] = []byte(`{"root": [ {"x": `)
	cases := map[string]struct {
		job *Job
		src *runtime.MemSource
	}{
		"group-by-downstream": {scanJob(2, measurementsPath(), bigGroupBy(), boom), src},
		"sort-downstream": {scanJob(2, measurementsPath(),
			&AssignSpec{Evals: []runtime.Evaluator{call("value", col(0), constStr("station"))}},
			&SortSpec{Keys: []SortDef{{Key: col(1)}}},
			boom), src},
		"join-downstream":     {joinFail, src},
		"group-by-scan-error": {scanJob(2, measurementsPath(), bigGroupBy()), corrupt},
		// The scan dies while the join's build partition writers are open.
		"join-scan-error": {bigJoinJob(2), corrupt},
	}
	for name, c := range cases {
		for _, mode := range []struct {
			name string
			run  func(*Job, *Env) (*Result, error)
		}{{"staged", RunStaged}, {"pipelined", RunPipelined}} {
			dir := t.TempDir()
			acct := frame.NewAccountant(0)
			env := &Env{Source: c.src, Accountant: acct,
				OpMemoryBudget: spillBudget, SpillDir: dir, SpillPartitions: 4}
			if _, err := mode.run(c.job, env); err == nil {
				t.Fatalf("%s/%s: expected error", name, mode.name)
			}
			if cur := acct.Current(); cur != 0 {
				t.Errorf("%s/%s: accountant balance = %d after failed run, want 0", name, mode.name, cur)
			}
			checkNoSpillFiles(t, name+"/"+mode.name, dir)
		}
	}
}

// TestSpillUnderForcedHashCollisions forces every key hash to one value:
// grace-hash partitioning cannot split anything by hash, so recursion must
// hit its depth bound and fall back to in-memory processing instead of
// looping forever — and still produce correct results.
func TestSpillUnderForcedHashCollisions(t *testing.T) {
	testHashEncodedField = func([]byte) (uint64, error) { return 42, nil }
	defer func() { testHashEncodedField = nil }()
	src := bigSource(120)
	runSpillDiff(t, "collisions-group-by", scanJob(1, measurementsPath(), bigGroupBy()), src, spillBudget, spillCounts{95826, 6, 6})
	// The join's single-hash guard (wave.overflows: a one-bucket table cannot
	// be split) keeps it in memory under total collision — correctness and
	// hygiene still hold, spilling is just declined.
	runSpillDiff(t, "collisions-join", bigJoinJob(1), src, spillBudget, spillCounts{})
}

// TestSpillAccountantBalancesWithProfile: the profiling wrappers snapshot
// spill counters at Close; they must not perturb the charge/release pairing
// of the out-of-core paths.
func TestSpillAccountantBalancesWithProfile(t *testing.T) {
	src := bigSource(200)
	jobs := map[string]*Job{
		"group-by": scanJob(2, measurementsPath(), bigGroupBy()),
		"sort":     scanJob(2, measurementsPath(), bigSortOps()...),
		"join":     bigJoinJob(2),
	}
	for name, job := range jobs {
		acct := frame.NewAccountant(0)
		res, err := RunStaged(job, &Env{Source: src, Accountant: acct, Profile: true,
			OpMemoryBudget: spillBudget, SpillDir: t.TempDir(), SpillPartitions: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cur := acct.Current(); cur != 0 {
			t.Errorf("%s: accountant balance = %d, want 0", name, cur)
		}
		var spilled int64
		for _, sp := range res.Profile.Spans {
			spilled += sp.SpilledBytes
		}
		if spilled <= 0 {
			t.Errorf("%s: no profile span reports spilled bytes", name)
		}
		if spilled != res.Stats.SpilledBytes {
			t.Errorf("%s: span spill sum %d != stats %d", name, spilled, res.Stats.SpilledBytes)
		}
	}
}
