package hyracks

import (
	"fmt"
	"math/rand"
	"testing"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// withReferenceGroupBy returns a copy of job in which every GROUP-BY (nested
// ones included) is the decoded-sequence reference of opbench.go; job itself
// is left untouched.
func withReferenceGroupBy(job *Job) *Job {
	out := &Job{Exchanges: job.Exchanges}
	for _, f := range job.Fragments {
		nf := *f
		nf.Ops = referenceOps(f.Ops)
		out.Fragments = append(out.Fragments, &nf)
	}
	return out
}

func referenceOps(ops []OpSpec) []OpSpec {
	out := make([]OpSpec, len(ops))
	for i, op := range ops {
		switch op := op.(type) {
		case *GroupBySpec:
			out[i] = refGroupBySpec{op}
		case *SubplanSpec:
			out[i] = &SubplanSpec{Nested: referenceOps(op.Nested), Desc: op.Desc}
		default:
			out[i] = op
		}
	}
	return out
}

// runModes runs the job once as the oracle — staged, in memory, every
// GROUP-BY swapped for the decoded reference (withReferenceGroupBy) — and
// then unchanged under both schedulers (see below for the one exception),
// each with spilling off, with a budget every blocking operator overruns,
// and with a budget that is never reached (same partitioning throughout).
// Every variant's sorted result must be byte-identical to the oracle's under
// the canonical encoding.
func runModes(t *testing.T, name string, job *Job) {
	t.Helper()
	ref, err := RunStaged(withReferenceGroupBy(job), &Env{Source: testSource()})
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	ref.SortRows()
	// Partition-local operators (a per-partition aggregate, a local group-by)
	// make a plan's rows depend on which task scanned which morsel, and only
	// the staged deal is deterministic: plans with a multi-partition scan skip
	// the pipelined scheduler here (spill_test.go covers it on plans whose
	// rows do not depend on the deal).
	scheds := []struct {
		name string
		run  func(*Job, *Env) (*Result, error)
	}{{"staged", RunStaged}, {"pipelined", RunPipelined}}
	for _, f := range job.Fragments {
		if _, scan := f.Source.(ScanSource); scan && f.Partitions > 1 {
			scheds = scheds[:1]
		}
	}
	for _, sched := range scheds {
		for _, budget := range []int64{0, 256, roomyBudget} {
			vname := fmt.Sprintf("%s: lazy/%s/budget=%d", name, sched.name, budget)
			lazy, err := sched.run(job, &Env{Source: testSource(),
				OpMemoryBudget: budget, SpillDir: t.TempDir(), SpillPartitions: 4})
			if err != nil {
				t.Fatalf("%s: %v", vname, err)
			}
			lazy.SortRows()
			sameRowsBytes(t, vname, ref, lazy)
			// The shuffle statistics must agree too: every variant moves the
			// same tuples.
			if ref.Stats.TuplesShuffled != lazy.Stats.TuplesShuffled ||
				ref.Stats.BytesShuffled != lazy.Stats.BytesShuffled {
				t.Errorf("%s: shuffle stats diverge: reference %d tuples/%d bytes, lazy %d tuples/%d bytes",
					vname, ref.Stats.TuplesShuffled, ref.Stats.BytesShuffled,
					lazy.Stats.TuplesShuffled, lazy.Stats.BytesShuffled)
			}
		}
	}
}

// TestDifferentialLazyVsEagerFixedPlans covers the named plan shapes: every
// operator kind, exchanges of all three kinds, and the join.
func TestDifferentialLazyVsEagerFixedPlans(t *testing.T) {
	sortSpec := &SortSpec{Keys: []SortDef{{Key: col(0)}, {Key: col(1), Desc: true}}}
	fixed := map[string]*Job{
		"scan":        scanJob(2, measurementsPath()),
		"whole-docs":  scanJob(1, nil),
		"select-tmin": scanJob(2, measurementsPath(), &SelectSpec{Cond: call("eq", call("value", col(0), constStr("dataType")), constStr("TMIN"))}),
		"assign": scanJob(1, measurementsPath(), &AssignSpec{Evals: []runtime.Evaluator{
			call("value", col(0), constStr("station")),
			call("value", col(0), constStr("value")),
		}}),
		"unnest": scanJob(1, nil,
			&UnnestSpec{Expr: call("keys-or-members", call("value", col(0), constStr("root")))},
			&UnnestSpec{Expr: call("keys-or-members", call("value", col(1), constStr("results")))},
			&ProjectSpec{Cols: []int{2}}),
		"aggregate": scanJob(2, measurementsPath(),
			&AggregateSpec{Aggs: []AggDef{
				{Fn: runtime.MustAgg("agg-count"), Arg: col(0)},
				{Fn: runtime.MustAgg("agg-avg"), Arg: call("value", col(0), constStr("value"))},
			}}),
		"group-by": scanJob(1, measurementsPath(), &GroupBySpec{
			Keys: []runtime.Evaluator{call("value", col(0), constStr("date"))},
			Aggs: []AggDef{
				{Fn: runtime.MustAgg("agg-count"), Arg: call("value", col(0), constStr("station"))},
				{Fn: runtime.MustAgg("agg-min"), Arg: call("value", col(0), constStr("value"))},
			},
		}),
		"two-step-gby-1x1": twoStepGroupByJob(1, 1),
		"two-step-gby-3x2": twoStepGroupByJob(3, 2),
		"hash-join-1":      joinJob(1),
		"hash-join-3":      joinJob(3),
		"sort": scanJob(2, measurementsPath(), &AssignSpec{Evals: []runtime.Evaluator{
			call("value", col(0), constStr("station")),
			call("value", col(0), constStr("value")),
		}}, &ProjectSpec{Cols: []int{1, 2}}, sortSpec),
		"subplan": scanJob(1, nil, &SubplanSpec{Nested: []OpSpec{
			&UnnestSpec{Expr: call("keys-or-members", call("value", col(0), constStr("root")))},
			&AggregateSpec{Aggs: []AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: col(1)}}},
		}}, &ProjectSpec{Cols: []int{1}}),
	}
	for name, job := range fixed {
		runModes(t, name, job)
	}
}

// TestDifferentialLazyVsEagerRandomPlans runs a deterministic corpus of
// randomly composed plans through runModes. Plans draw selects, assigns,
// group-bys, sorts and aggregates over the sensor fields with random
// partition counts, so encoded/reference equivalence is checked well beyond
// the hand-written shapes.
func TestDifferentialLazyVsEagerRandomPlans(t *testing.T) {
	r := rand.New(rand.NewSource(20180326)) // EDBT 2018 paper day, for luck
	for i := 0; i < 24; i++ {
		job := randomJob(r)
		runModes(t, fmt.Sprintf("random-%d", i), job)
	}
}

func randomJob(r *rand.Rand) *Job {
	fields := []string{"date", "dataType", "station"}
	vals := map[string][]string{
		"date":     {"2013-12-25T00:00", "2013-12-26T00:00", "2014-01-01T00:00"},
		"dataType": {"TMIN", "TMAX", "AWND"},
		"station":  {"S1", "S2", "S3", "S9"},
	}
	var ops []OpSpec
	if r.Intn(2) == 0 {
		f := fields[r.Intn(len(fields))]
		v := vals[f][r.Intn(len(vals[f]))]
		ops = append(ops, &SelectSpec{Cond: call("eq", call("value", col(0), constStr(f)), constStr(v))})
	}
	keyField := fields[r.Intn(len(fields))]
	ops = append(ops, &AssignSpec{Evals: []runtime.Evaluator{
		call("value", col(0), constStr(keyField)),
		call("value", col(0), constStr("value")),
	}})
	// Columns now: 0 = document, 1 = key field, 2 = value.
	switch r.Intn(4) {
	case 0:
		aggs := []AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: col(2)}}
		if r.Intn(2) == 0 {
			aggs = append(aggs, AggDef{Fn: runtime.MustAgg("agg-sum"), Arg: col(2)})
		}
		ops = append(ops, &GroupBySpec{Keys: []runtime.Evaluator{col(1)}, Aggs: aggs})
	case 1:
		ops = append(ops,
			&ProjectSpec{Cols: []int{1, 2}},
			&SortSpec{Keys: []SortDef{{Key: col(0), Desc: r.Intn(2) == 0}, {Key: col(1)}}})
	case 2:
		ops = append(ops, &AggregateSpec{Aggs: []AggDef{
			{Fn: runtime.MustAgg("agg-count"), Arg: col(1)},
			{Fn: runtime.MustAgg("agg-max"), Arg: col(2)},
		}})
	case 3:
		ops = append(ops, &ProjectSpec{Cols: []int{1, 2}})
	}
	return scanJob(1+r.Intn(3), measurementsPath(), ops...)
}

// TestEncodedPathsUnderForcedHashCollisions forces every encoded key hash to
// a single value, so group-by tables, join tables and hash routing live
// entirely on their bucket chains and byte/structural key comparison. The
// results must not change.
func TestEncodedPathsUnderForcedHashCollisions(t *testing.T) {
	testHashEncodedField = func([]byte) (uint64, error) { return 42, nil }
	defer func() { testHashEncodedField = nil }()
	jobs := map[string]*Job{
		"group-by": scanJob(1, measurementsPath(), &GroupBySpec{
			Keys: []runtime.Evaluator{call("value", col(0), constStr("date"))},
			Aggs: []AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: col(0)}},
		}),
		"two-step-gby": twoStepGroupByJob(2, 2),
		"hash-join":    joinJob(2),
	}
	for name, job := range jobs {
		res, err := RunStaged(job, &Env{Source: testSource()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res.SortRows()
		switch name {
		case "group-by", "two-step-gby":
			if len(res.Rows) != 2 {
				t.Fatalf("%s: groups = %d, want 2 (collision chain broken?)", name, len(res.Rows))
			}
			for _, row := range res.Rows {
				c, _ := row[1].One()
				if float64(c.(item.Number)) != 3 {
					t.Errorf("%s: group %s count = %s, want 3", name,
						item.JSONSeq(row[0]), item.JSONSeq(row[1]))
				}
			}
		case "hash-join":
			if len(res.Rows) != 1 || !item.EqualSeq(res.Rows[0][0], item.Single(item.Number(9.5))) {
				t.Fatalf("%s: rows = %v", name, res.Rows)
			}
		}
	}
}

// TestExchangeForwardsWholeFrames checks the merge/1:1 fast path: frames
// cross those exchanges intact (no per-tuple re-emit) while the shuffle
// statistics still count the tuples and bytes that moved.
func TestExchangeForwardsWholeFrames(t *testing.T) {
	// fragment 0 (2 partitions) --1:1--> fragment 1 --merge--> fragment 2
	passthrough := func() []OpSpec { return nil }
	job := &Job{
		Fragments: []*Fragment{
			{ID: 0, Source: ScanSource{Collection: "/sensors", Project: measurementsPath()},
				Ops: passthrough(), Partitions: 2, SinkExchange: 0},
			{ID: 1, Source: ExchangeSource{Exchange: 0},
				Ops: passthrough(), Partitions: 2, SinkExchange: 1},
			{ID: 2, Source: ExchangeSource{Exchange: 1},
				Ops: passthrough(), Partitions: 1, SinkExchange: -1},
		},
		Exchanges: []*Exchange{
			{ID: 0, Kind: ExchangeOneToOne, ConsumerPartitions: 2},
			{ID: 1, Kind: ExchangeMerge, ConsumerPartitions: 1},
		},
	}
	for _, mode := range []struct {
		name string
		run  func(*Job, *Env) (*Result, error)
	}{{"staged", RunStaged}, {"pipelined", RunPipelined}} {
		acct := frame.NewAccountant(0)
		res, err := mode.run(job, &Env{Source: testSource(), Accountant: acct})
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if len(res.Rows) != 6 {
			t.Fatalf("%s: rows = %d, want 6", mode.name, len(res.Rows))
		}
		// 6 tuples through the 1:1 exchange + 6 through the merge.
		if res.Stats.TuplesShuffled != 12 {
			t.Errorf("%s: TuplesShuffled = %d, want 12", mode.name, res.Stats.TuplesShuffled)
		}
		if res.Stats.BytesShuffled <= 0 {
			t.Errorf("%s: BytesShuffled = %d, want > 0", mode.name, res.Stats.BytesShuffled)
		}
		if cur := acct.Current(); cur != 0 {
			t.Errorf("%s: accountant balance = %d after forwarding, want 0", mode.name, cur)
		}
	}
}

// TestAccountantBalancesToZeroBothModes extends the accountant invariant to
// the blocking operators (group-by and the join hold an arena and interned
// keys, sort its rows), with and without profile collection — the profiling
// wrappers and counter snapshots must not perturb a single charge/release
// pair.
func TestAccountantBalancesToZeroBothModes(t *testing.T) {
	sortSpec := &SortSpec{Keys: []SortDef{{Key: col(1)}}}
	jobs := map[string]*Job{
		"two-step-gby": twoStepGroupByJob(2, 2),
		"hash-join":    joinJob(2),
		"sort": scanJob(2, measurementsPath(), &AssignSpec{Evals: []runtime.Evaluator{
			call("value", col(0), constStr("station")),
		}}, sortSpec),
	}
	for name, job := range jobs {
		for _, profile := range []bool{false, true} {
			acct := frame.NewAccountant(0)
			res, err := RunStaged(job, &Env{Source: testSource(), Accountant: acct, Profile: profile})
			if err != nil {
				t.Fatalf("%s (profile=%v): %v", name, profile, err)
			}
			if cur := acct.Current(); cur != 0 {
				t.Errorf("%s (profile=%v): accountant balance = %d after clean end, want 0", name, profile, cur)
			}
			if acct.Peak() <= 0 {
				t.Errorf("%s (profile=%v): peak = %d, want > 0", name, profile, acct.Peak())
			}
			if profile {
				// The profile's held-memory high-water must be visible in
				// at least one keyed operator's span.
				var peak int64
				for _, sp := range res.Profile.Spans {
					peak = max(peak, sp.MemPeak)
				}
				if peak <= 0 {
					t.Errorf("%s: no span reports a memory high-water", name)
				}
			}
		}
	}
}

// referenceFrames returns the six measurement records of testSource() plus
// two records without a station (whose station key is the empty sequence) as
// one-field tuples, in frames small enough that operators see several.
func referenceFrames(t *testing.T) []*frame.Frame {
	t.Helper()
	res, err := RunStaged(scanJob(1, measurementsPath()), &Env{Source: testSource()})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	for _, doc := range []string{`{"date":"2013-12-25T00:00","dataType":"TMIN","value":1}`, `{"date":"2013-12-26T00:00","dataType":"TMAX","value":2}`} {
		it, err := jsonparse.Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, []item.Sequence{item.Single(it)})
	}
	return BenchFrames(rows, 256)
}

// TestJoinMatchesReference checks joiner against the decoded reference
// (refJoin) at operator level: the same joined tuples in the same order, on
// column and computed keys, with hash collisions forced onto the encoded
// bucket chains, and with empty keys, which never join.
func TestJoinMatchesReference(t *testing.T) {
	frames := referenceFrames(t)
	field := func(name string) runtime.Evaluator { return call("value", col(0), constStr(name)) }
	specs := map[string][]runtime.Evaluator{
		"column":       {col(0)},
		"station":      {field("station")},
		"date+station": {field("date"), field("station")},
		"dataType":     {field("dataType")},
	}
	run := func(j joinSides, ctx *TaskCtx) *Result {
		sink := &CollectSink{}
		b := newFrameBuilder(ctx, sink)
		for _, fr := range frames {
			if err := j.build(fr); err != nil {
				t.Fatal(err)
			}
		}
		for _, fr := range frames {
			if err := j.probe(fr, b); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.flush(); err != nil {
			t.Fatal(err)
		}
		return &Result{Rows: sink.Rows}
	}
	defer func() { testHashEncodedField = nil }()
	for _, collide := range []bool{false, true} {
		if collide {
			testHashEncodedField = func([]byte) (uint64, error) { return 42, nil }
		}
		for name, keys := range specs {
			spec := &JoinSpec{BuildKeys: keys, ProbeKeys: keys}
			ctx := benchCtx()
			ref := run(&refJoin{ctx: ctx, spec: spec, table: refTable{}}, ctx)
			j := newJoiner(ctx, spec)
			got := run(j, ctx)
			j.release()
			if len(ref.Rows) == 0 {
				t.Fatalf("%s: the reference joined nothing", name)
			}
			sameRowsBytes(t, fmt.Sprintf("%s (collisions=%v)", name, collide), ref, got)
		}
	}
}

// TestHashRouteMatchesReference: the encoded hash route folds HashEncoded with
// the FNV chain the decoded reference (refRouter) folds HashSeq with, so both
// deliver the same tuples in the same order to every destination.
func TestHashRouteMatchesReference(t *testing.T) {
	frames := referenceFrames(t)
	const parts = 3
	for name, keys := range map[string][]runtime.Evaluator{
		"column":   {col(0)},
		"computed": {call("value", col(0), constStr("station")), call("value", col(0), constStr("date"))},
	} {
		route := func(reference bool) [parts][]string {
			ctx := benchCtx()
			var got [parts][]string
			dests := make([]frameDest, parts)
			for p := range dests {
				dests[p] = collectDest(func(fr *frame.Frame) error {
					return forEachTuple(fr, func(fields []item.Sequence, _ [][]byte) error {
						got[p] = append(got[p], item.JSONSeq(fields[0]))
						return nil
					})
				})
			}
			ew := newExchangeWriter(ctx, &Exchange{Kind: ExchangeHash, Keys: keys, ConsumerPartitions: parts}, dests)
			var w Writer = ew
			if reference {
				w = refRouter{ew}
			}
			if err := pushAll(w, frames); err != nil {
				t.Fatal(err)
			}
			return got
		}
		ref, got := route(true), route(false)
		used := 0
		for p := range ref {
			if fmt.Sprint(ref[p]) != fmt.Sprint(got[p]) {
				t.Errorf("%s: destination %d got %v, reference %v", name, p, got[p], ref[p])
			}
			if len(ref[p]) > 0 {
				used++
			}
		}
		if used < 2 {
			t.Errorf("%s: the reference used %d of %d destinations, want a spread", name, used, parts)
		}
	}
}

// collectDest is a frameDest that hands every routed frame to a function.
type collectDest func(fr *frame.Frame) error

func (d collectDest) send(fr *frame.Frame) error { return d(fr) }
