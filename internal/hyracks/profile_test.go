package hyracks

import (
	"bytes"
	"encoding/json"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"vxq/internal/runtime"
)

func TestProfileNilWhenOff(t *testing.T) {
	for mode, run := range map[string]func(*Job, *Env) (*Result, error){
		"staged":    RunStaged,
		"pipelined": RunPipelined,
	} {
		res, err := run(twoStepGroupByJob(2, 2), &Env{Source: testSource()})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Profile != nil {
			t.Errorf("%s: Profile != nil without Env.Profile", mode)
		}
	}
}

// findNode walks the profile tree for the first node whose name contains sub.
func findNode(n *ProfileNode, sub string) *ProfileNode {
	if n == nil {
		return nil
	}
	if strings.Contains(n.Name, sub) {
		return n
	}
	for _, c := range n.Children {
		if got := findNode(c, sub); got != nil {
			return got
		}
	}
	return nil
}

// TestProfileTreeMirrorsPlan: the two-step group-by compiles to
// collector <- global GROUPBY <- RECEIVE <- EXCHANGE[hash] <- local GROUPBY
// <- DATASCAN, and the profile tree must render exactly that chain with the
// right kinds and partition counts.
func TestProfileTreeMirrorsPlan(t *testing.T) {
	for mode, run := range map[string]func(*Job, *Env) (*Result, error){
		"staged":    RunStaged,
		"pipelined": RunPipelined,
	} {
		res, err := run(twoStepGroupByJob(3, 2), &Env{Source: testSource(), Profile: true})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		p := res.Profile
		if p == nil {
			t.Fatalf("%s: no profile", mode)
		}
		root := p.Root
		if root == nil || root.Name != "RESULT" || root.Kind != "sink" {
			t.Fatalf("%s: root = %+v, want RESULT sink", mode, root)
		}
		if root.Partitions != 2 {
			t.Errorf("%s: root partitions = %d, want 2", mode, root.Partitions)
		}
		// Chain below the collector: global group-by, then the receive source.
		global := findNode(root, "GROUP-BY")
		if global == nil || global.Kind != "group-by" || global.Fragment != 1 {
			t.Fatalf("%s: global group-by node = %+v", mode, global)
		}
		recv := findNode(global, "RECEIVE")
		if recv == nil || recv.Kind != "receive" {
			t.Fatalf("%s: receive node missing under global group-by", mode)
		}
		// The producing fragment hangs under the receive: its top is the
		// exchange sink, its leaf the scan.
		exch := findNode(recv, "EXCHANGE exch#0")
		if exch == nil || exch.Kind != "exchange" {
			t.Fatalf("%s: producer exchange node missing under receive", mode)
		}
		if exch.Fragment != 0 || exch.Partitions != 3 {
			t.Errorf("%s: exchange node fragment/partitions = %d/%d, want 0/3",
				mode, exch.Fragment, exch.Partitions)
		}
		scan := findNode(exch, "DATASCAN")
		if scan == nil || scan.Kind != "scan" {
			t.Fatalf("%s: scan leaf missing", mode)
		}
		if scan.Metrics.Morsels == 0 {
			t.Errorf("%s: scan morsels = 0", mode)
		}
		// Span inventory: (2 ops-stages + source + sink would be 3 stages per
		// fragment here: source, one group-by, sink) x partitions.
		wantSpans := 3*3 + 3*2
		if len(p.Spans) != wantSpans {
			t.Errorf("%s: %d spans, want %d", mode, len(p.Spans), wantSpans)
		}
		for _, sp := range p.Spans {
			if sp.SelfNS < 0 {
				t.Errorf("%s: span %s has negative self time", mode, sp.Name)
			}
		}
	}
}

// TestProfileSelfTimesSumToWall: under the staged executor tasks run one at a
// time, so the exclusive per-operator times must account for the job wall
// within the documented 10% bound (executor setup between tasks is all that
// is missing). A run descheduled between tasks measures the host, not the
// profile, so a run counts only when the host delivered a core through it:
// the process's own CPU time over the run reaches 0.9 of the run's wall, the
// calibrated-gate rule of internal/bench. Each run follows a forced GC, as
// there. Runs repeat for up to profileBudget, and the first that counts is
// judged; the test fails, naming the figures, when none counts. A budget of
// time rather than of runs: on a 2-core host, beside internal/bench's timing
// tests, the first run that counted was once the 14th.
func TestProfileSelfTimesSumToWall(t *testing.T) {
	const profileBudget = 5 * time.Second
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{
		"/sensors": {
			"a.json": ndSensorFile(1500, 120),
			"b.json": ndSensorFile(1500, 120),
		},
	}}
	deadline := time.Now().Add(profileBudget)
	bestCPU, bestRatio := 0.0, 0.0
	for run := 1; ; run++ {
		goruntime.GC()
		cpu0, haveCPU := processCPU()
		start := time.Now()
		res, err := RunStaged(twoStepGroupByJob(4, 2), &Env{Source: src, Profile: true, MorselSize: 16 << 10})
		elapsed := time.Since(start)
		cpu1, _ := processCPU()
		if err != nil {
			t.Fatal(err)
		}
		p := res.Profile
		sum, wall := p.SelfSumNS(), p.WallNS
		if wall <= 0 {
			t.Fatalf("wall = %d", wall)
		}
		ratio := float64(sum) / float64(wall)
		cpu := float64(cpu1-cpu0) / float64(elapsed)
		if haveCPU && cpu < 0.9 {
			if cpu > bestCPU {
				bestCPU, bestRatio = cpu, ratio
			}
			if time.Now().After(deadline) {
				t.Fatalf("the host delivered no core through any of %d runs in %v: best CPU time %.2f of wall (self-time ratio %.3f), want >= 0.9",
					run, profileBudget, bestCPU, bestRatio)
			}
			continue
		}
		if ratio < 0.9 || ratio > 1.001 {
			t.Fatalf("run %d: self-time sum %d / wall %d = %.3f, want within [0.9, 1.0]", run, sum, wall, ratio)
		}
		t.Logf("run %d counted (CPU time %.2f of wall): self-time ratio %.3f", run, cpu, ratio)
		return
	}
}

// TestProfileFlowCounts checks the in/out bookkeeping on a single-partition
// scan: every tuple the scan emits enters the sink, out of stage k equals in
// of stage k+1, and the result sink sees all 6 measurements.
func TestProfileFlowCounts(t *testing.T) {
	cond := call("eq", call("value", col(0), constStr("dataType")), constStr("TMIN"))
	res, err := RunStaged(scanJob(1, measurementsPath(), &SelectSpec{Cond: cond}),
		&Env{Source: testSource(), Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	// Spans are sorted stage-descending: sink, select, source.
	if len(p.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(p.Spans))
	}
	sink, sel, src := p.Spans[0], p.Spans[1], p.Spans[2]
	if src.Kind != "scan" || sel.Kind != "select" || sink.Kind != "sink" {
		t.Fatalf("span order wrong: %s/%s/%s", src.Kind, sel.Kind, sink.Kind)
	}
	if src.TuplesOut != 6 {
		t.Errorf("scan tuples out = %d, want 6", src.TuplesOut)
	}
	if sel.TuplesIn != 6 || sel.TuplesOut != 4 {
		t.Errorf("select in/out = %d/%d, want 6/4", sel.TuplesIn, sel.TuplesOut)
	}
	if sink.TuplesIn != 4 || sink.TuplesOut != 4 {
		t.Errorf("sink in/out = %d/%d, want 4/4", sink.TuplesIn, sink.TuplesOut)
	}
	if src.TuplesOut != sel.TuplesIn || sel.TuplesOut != sink.TuplesIn {
		t.Error("stage out != next stage in")
	}
	if sel.BytesIn == 0 || sel.FramesIn == 0 {
		t.Errorf("select frames/bytes in = %d/%d, want > 0", sel.FramesIn, sel.BytesIn)
	}
}

// TestProfileExchangeForwardVsRebuilt: a hash exchange re-frames tuple by
// tuple (rebuilt), merge and 1:1 exchanges hand frames through (forwarded).
// The join job has both kinds.
func TestProfileExchangeForwardVsRebuilt(t *testing.T) {
	res, err := RunStaged(joinJob(2), &Env{Source: testSource(), Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	var hash, merge *Span
	for i := range res.Profile.Spans {
		sp := &res.Profile.Spans[i]
		if sp.Kind != "exchange" {
			continue
		}
		switch {
		case strings.Contains(sp.Name, "[HASH]") && hash == nil:
			hash = sp
		case strings.Contains(sp.Name, "[MERGE]") && merge == nil:
			merge = sp
		}
	}
	if hash == nil || merge == nil {
		t.Fatalf("missing exchange spans (hash=%v merge=%v)", hash != nil, merge != nil)
	}
	if hash.FramesRebuilt == 0 || hash.FramesForwarded != 0 {
		t.Errorf("hash exchange fwd/rebuilt = %d/%d, want 0/>0",
			hash.FramesForwarded, hash.FramesRebuilt)
	}
	if merge.FramesForwarded == 0 || merge.FramesRebuilt != 0 {
		t.Errorf("merge exchange fwd/rebuilt = %d/%d, want >0/0",
			merge.FramesForwarded, merge.FramesRebuilt)
	}
	// The join source span carries the build table's counters; table memory
	// must have been charged and the arena must have interned the keys.
	var joinSrc *Span
	for i := range res.Profile.Spans {
		sp := &res.Profile.Spans[i]
		if sp.Kind == "join" && sp.Stage == 0 {
			joinSrc = sp
			break
		}
	}
	if joinSrc == nil {
		t.Fatal("no join source span")
	}
	if joinSrc.MemPeak == 0 || joinSrc.ArenaBytes == 0 {
		t.Errorf("join mem/arena = %d/%d, want > 0", joinSrc.MemPeak, joinSrc.ArenaBytes)
	}
}

// TestProfileGroupByCounters: the group-by span surfaces held-memory
// high-water and arena bytes.
func TestProfileGroupByCounters(t *testing.T) {
	res, err := RunStaged(twoStepGroupByJob(2, 2), &Env{Source: testSource(), Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range res.Profile.Spans {
		if sp.Kind == "group-by" && sp.MemPeak > 0 && sp.ArenaBytes > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no group-by span with mem peak and arena bytes")
	}
}

// TestProfileTraceRoundTrip: WriteTrace emits JSON that decodes back to the
// same spans, and every span carries the documented schema fields.
func TestProfileTraceRoundTrip(t *testing.T) {
	res, err := RunStaged(twoStepGroupByJob(2, 2), &Env{Source: testSource(), Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Profile.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	if len(back.Spans) != len(res.Profile.Spans) || back.WallNS != res.Profile.WallNS {
		t.Errorf("round trip lost data: %d/%d spans", len(back.Spans), len(res.Profile.Spans))
	}
	if back.Root == nil || back.Root.Name != res.Profile.Root.Name {
		t.Error("round trip lost the tree root")
	}
	// Schema check on the raw JSON: every span object must carry the
	// documented keys.
	var raw struct {
		Spans []map[string]any `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	required := []string{
		"fragment", "partition", "stage", "name", "kind", "start_ns", "end_ns",
		"push_ns", "open_close_ns", "self_ns",
		"frames_in", "tuples_in", "bytes_in",
		"frames_out", "tuples_out", "bytes_out",
		"frames_forwarded", "frames_rebuilt",
		"mem_peak", "hash_collisions", "arena_bytes",
		"morsels", "morsel_steals", "morsels_skipped",
	}
	for _, sp := range raw.Spans {
		for _, k := range required {
			if _, ok := sp[k]; !ok {
				t.Fatalf("span missing %q: %v", k, sp)
			}
		}
	}
}

// TestProfileString renders the annotated plan and spot-checks the pieces the
// CLI relies on.
func TestProfileString(t *testing.T) {
	res, err := RunStaged(twoStepGroupByJob(2, 2), &Env{Source: testSource(), Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Profile.String()
	for _, want := range []string{"profile: wall", "RESULT", "GROUP-BY", "DATASCAN", "EXCHANGE exch#0", "self ", "morsels "} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering lacks %q:\n%s", want, s)
		}
	}
}

// TestProfileResultsUnchanged: profiling must not alter results — same rows
// with and without it, on both executors.
func TestProfileResultsUnchanged(t *testing.T) {
	base := runBoth(t, joinJob(2), envFactory(testSource()))
	prof := runBoth(t, joinJob(2), func() *Env { return &Env{Source: testSource(), Profile: true} })
	if len(base.Rows) != len(prof.Rows) {
		t.Fatalf("row count changed under profiling: %d vs %d", len(base.Rows), len(prof.Rows))
	}
}

// TestMorselStealCounting: with a shared cursor, a morsel taken off another
// partition's round-robin share counts as a steal.
func TestMorselStealCounting(t *testing.T) {
	morsels := []morsel{
		{file: "a", start: 0, end: 10, first: true},
		{file: "a", start: 10, end: 20},
		{file: "a", start: 20, end: 30},
		{file: "a", start: 30, end: 40},
	}
	q := newMorselQueue(morsels, 2, true)
	// Partition 0 drains the whole queue: indexes 0 and 2 are its own share,
	// 1 and 3 are steals from partition 1.
	var steals, own int
	for {
		_, stolen, ok := q.take(0)
		if !ok {
			break
		}
		if stolen {
			steals++
		} else {
			own++
		}
	}
	if own != 2 || steals != 2 {
		t.Errorf("own/steals = %d/%d, want 2/2", own, steals)
	}
}
