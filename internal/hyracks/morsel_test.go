package hyracks

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// ndSensorFile builds a newline-delimited file of records standalone
// {"root":[...]} documents, one per line, each padded to roughly padBytes so
// records straddle morsel boundaries at small morsel sizes.
func ndSensorFile(records, padBytes int) []byte {
	var sb strings.Builder
	pad := strings.Repeat("x", padBytes)
	for i := 0; i < records; i++ {
		fmt.Fprintf(&sb,
			`{"root":[{"metadata":{"count":1},"results":[{"date":"2013-12-%02dT00:00","dataType":"TMIN","station":"S%06d","value":%d,"pad":%q}]}]}`+"\n",
			1+i%28, i, i%40, pad)
	}
	return []byte(sb.String())
}

// referenceItems parses every file whole (no morsels) and returns the sorted
// JSON renderings of the projected items — the ground truth a morsel-split
// scan must reproduce exactly.
func referenceItems(t *testing.T, docs map[string][]byte, path jsonparse.Path) []string {
	t.Helper()
	var out []string
	for _, data := range docs {
		l := jsonparse.NewStreamLexerAt(bytes.NewReader(data), 0, 0)
		_, err := jsonparse.ScanValues(l, path, -1, func(it item.Item) error {
			out = append(out, item.JSON(it))
			return nil
		})
		if err != nil {
			t.Fatalf("reference parse: %v", err)
		}
	}
	sort.Strings(out)
	return out
}

func resultItems(res *Result) []string {
	var out []string
	for _, row := range res.Rows {
		out = append(out, item.JSONSeq(row[0]))
	}
	sort.Strings(out)
	return out
}

// blankLinesFile builds newline-delimited records separated by runs of
// blank and whitespace-only lines of varying length (up to a few hundred
// bytes), so nominal morsel cuts fall inside a run as often as inside a
// record.
func blankLinesFile(records int) []byte {
	rec := ndSensorFile(records, 40)
	var out []byte
	for i, line := range bytes.SplitAfter(rec, []byte("\n")) {
		out = append(out, line...)
		out = append(out, bytes.Repeat([]byte("\n"), i%7)...)
		out = append(out, bytes.Repeat([]byte("  \n"), (i*37)%90)...)
	}
	return out
}

// fixedLinesFile builds records newline-terminated at exactly lineBytes
// bytes each, so every cut at a multiple of lineBytes is a line start.
func fixedLinesFile(records, lineBytes int) []byte {
	var out []byte
	for i := 0; i < records; i++ {
		head := fmt.Sprintf(`{"root":[{"results":[{"date":"2013-12-%02dT00:00","station":"C%06d","value":%d,"pad":"`,
			1+i%28, i, i%40)
		tail := `"}]}]}` + "\n"
		out = append(out, head...)
		out = append(out, bytes.Repeat([]byte("x"), lineBytes-len(head)-len(tail))...)
		out = append(out, tail...)
	}
	return out
}

// TestMorselScanEquivalence is the correctness property of the morsel
// scheduler: concatenating the records parsed from every morsel must equal
// the whole-file parse, at morsel sizes that split mid-record, mid-string,
// inside blank-line runs and exactly on line starts, for files with and
// without newline separators, at several partition counts, on both
// executors.
func TestMorselScanEquivalence(t *testing.T) {
	docs := map[string][]byte{
		// ~45 KiB of ~230-byte records: dozens of boundary-spanning records
		// at 1 KiB and 4 KiB morsels.
		"many.json": ndSensorFile(200, 100),
		// Records of ~3 KiB, each larger than a whole 1 KiB morsel.
		"bigrec.json": ndSensorFile(12, 3000),
		// No newlines at all: splitting must degrade to one effective owner
		// (morsel 0 owns the single record that starts at offset 0).
		"oneline.json": bigSensorFile(8 << 10),
		// Smaller than every morsel size: never split.
		"tiny.json": ndSensorFile(2, 0),
		// Strings dense with escapes, so cuts land mid-string and mid-escape.
		"escaped.json": escapedNewlineFile(60),
		// Runs of blank and whitespace-only lines between records, so cuts
		// land inside them.
		"blanks.json": blankLinesFile(60),
		// 256-byte lines: every cut is exactly a line start, the case the
		// probe's one byte of look-behind exists for.
		"cuts.json": fixedLinesFile(64, 256),
	}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	want := referenceItems(t, docs, measurementsPath())
	if len(want) == 0 {
		t.Fatal("reference produced no items")
	}
	for _, ms := range []int64{1 << 10, 4 << 10, 1 << 20} {
		for _, parts := range []int{1, 3} {
			env := func() *Env { return &Env{Source: src, MorselSize: ms} }
			res := runBoth(t, scanJob(parts, measurementsPath()), env)
			got := resultItems(res)
			if len(got) != len(want) {
				t.Fatalf("morsel=%d parts=%d: %d items, want %d", ms, parts, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("morsel=%d parts=%d: item %d = %s, want %s", ms, parts, i, got[i], want[i])
				}
			}
		}
	}
}

// escapedNewlineFile builds newline-delimited records whose note strings are
// dense with two-character escape sequences — \n, \", \\ — so that morsel
// boundaries and 64-byte block boundaries land inside escapes and between a
// backslash and its escaped character. A raw 0x0A never occurs inside a JSON
// string (it must be escaped), so the only newline bytes are the record
// separators; the scanner must not mistake the 'n' of a \n escape — or a
// quote preceded by an even run of backslashes — for structure.
func escapedNewlineFile(records int) []byte {
	var sb strings.Builder
	esc := strings.Repeat(`line\n`, 20) + strings.Repeat(`\\`, 31) + `\"quoted\"` + strings.Repeat(`\\n`, 13)
	for i := 0; i < records; i++ {
		fmt.Fprintf(&sb,
			`{"root":[{"metadata":{"count":1},"results":[{"date":"2013-12-%02dT00:00","dataType":"TMIN","station":"E%06d","value":%d,"note":"%s"}]}]}`+"\n",
			1+i%28, i, i%40, esc[i%7:]) // vary phase so escapes shift against block boundaries
	}
	return []byte(sb.String())
}

// TestMorselEscapedNewlineSpansBoundary is the string-spanning case: records
// full of escaped newlines (backslash + 'n' — the only legal way to put a
// newline in a JSON string) cut by morsel boundaries mid-string and
// mid-escape. The newline probe must deliver every record exactly once.
func TestMorselEscapedNewlineSpansBoundary(t *testing.T) {
	docs := map[string][]byte{"escaped.json": escapedNewlineFile(60)}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	want := referenceItems(t, docs, measurementsPath())
	if len(want) != 60 {
		t.Fatalf("reference = %d items, want 60", len(want))
	}
	for _, ms := range []int64{128, 256, 512, 1 << 10} {
		for _, parts := range []int{1, 3} {
			env := func() *Env { return &Env{Source: src, MorselSize: ms} }
			got := resultItems(runBoth(t, scanJob(parts, measurementsPath()), env))
			if len(got) != len(want) {
				t.Fatalf("morsel=%d parts=%d: %d items, want %d (record dropped or duplicated)",
					ms, parts, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("morsel=%d parts=%d: item %d differs", ms, parts, i)
				}
			}
		}
	}
}

// TestMorselQueueSplitsAndCounts checks the scheduler bookkeeping: a skewed
// file set is split into the expected number of morsels, every morsel is
// scanned exactly once (the profile's scan spans' Morsels sum to the
// total), and the staged executor's round-robin deal is deterministic per
// partition and steals nothing.
func TestMorselQueueSplitsAndCounts(t *testing.T) {
	const ms = 4 << 10
	docs := map[string][]byte{
		"big.json": ndSensorFile(300, 100), // ~68 KiB -> many morsels
	}
	for i := 0; i < 5; i++ {
		docs[fmt.Sprintf("small%d.json", i)] = ndSensorFile(4, 100) // < 4 KiB each
	}
	var wantMorsels int
	for _, d := range docs {
		n := (int64(len(d)) + ms - 1) / ms
		if int64(len(d)) <= ms {
			n = 1
		}
		wantMorsels += int(n)
	}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	const parts = 4
	env := func() *Env { return &Env{Source: src, MorselSize: ms, Profile: true} }

	sumMorsels := func(res *Result) (total, steals int, perPart map[int]int) {
		perPart = map[int]int{}
		for _, sp := range res.Profile.Spans {
			if sp.Kind != "scan" {
				continue
			}
			total += int(sp.Morsels)
			steals += int(sp.MorselSteals)
			perPart[sp.Partition] += int(sp.Morsels)
		}
		return total, steals, perPart
	}

	piped, err := RunPipelined(scanJob(parts, measurementsPath()), env())
	if err != nil {
		t.Fatal(err)
	}
	if total, steals, _ := sumMorsels(piped); total != wantMorsels || steals > total {
		t.Errorf("pipelined: morsels scanned = %d (%d stolen), want %d", total, steals, wantMorsels)
	}

	staged1, err := RunStaged(scanJob(parts, measurementsPath()), env())
	if err != nil {
		t.Fatal(err)
	}
	staged2, err := RunStaged(scanJob(parts, measurementsPath()), env())
	if err != nil {
		t.Fatal(err)
	}
	total1, steals1, per1 := sumMorsels(staged1)
	total2, steals2, per2 := sumMorsels(staged2)
	if total1 != wantMorsels || total2 != wantMorsels {
		t.Errorf("staged: morsels scanned = %d / %d, want %d", total1, total2, wantMorsels)
	}
	if steals1 != 0 || steals2 != 0 {
		t.Errorf("staged round-robin deal stole %d / %d morsels, want 0", steals1, steals2)
	}
	for p := 0; p < parts; p++ {
		if per1[p] != per2[p] {
			t.Errorf("staged deal not deterministic: partition %d got %d then %d morsels",
				p, per1[p], per2[p])
		}
		// Round-robin deal: partition p takes morsels p, p+parts, ...
		want := wantMorsels/parts + boolInt(p < wantMorsels%parts)
		if per1[p] != want {
			t.Errorf("staged partition %d scanned %d morsels, want %d", p, per1[p], want)
		}
	}
}

// TestMorselFinalRecordNoTrailingNewline: a file whose last record has no
// trailing newline, with MorselSize smaller than that final record, must
// produce the record exactly once — the tail morsels that slice through it
// find no line start past their base and own nothing.
func TestMorselFinalRecordNoTrailingNewline(t *testing.T) {
	head := ndSensorFile(6, 50)
	tail := bytes.TrimRight(ndSensorFile(1, 3000), "\n") // ~3 KiB final record, no newline
	data := append(append([]byte(nil), head...), tail...)
	docs := map[string][]byte{"tailrec.json": data}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	want := referenceItems(t, docs, measurementsPath())
	if len(want) != 7 {
		t.Fatalf("reference = %d items, want 7", len(want))
	}
	for _, ms := range []int64{512, 1 << 10} {
		for _, parts := range []int{1, 2, 4} {
			env := func() *Env { return &Env{Source: src, MorselSize: ms} }
			got := resultItems(runBoth(t, scanJob(parts, measurementsPath()), env))
			if len(got) != len(want) {
				t.Fatalf("morsel=%d parts=%d: %d items, want %d (final record dropped or duplicated)",
					ms, parts, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("morsel=%d parts=%d: item %d differs", ms, parts, i)
				}
			}
		}
	}
}

// TestMorselWhitespaceAfterNewlineBoundary: records separated by a newline
// followed by indentation spaces. Ownership is decided by line start, not by
// the record's first non-space byte, so a morsel boundary landing inside the
// indentation must not drop the record.
func TestMorselWhitespaceAfterNewlineBoundary(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, `{"root":[{"metadata":{"count":1},"results":[{"date":"2013-12-01T00:00","dataType":"TMIN","station":"W%04d","value":%d,"pad":%q}]}]}`,
			i, i, strings.Repeat("y", 80))
		sb.WriteString("\n      ") // indentation that can straddle a boundary
	}
	docs := map[string][]byte{"indent.json": []byte(sb.String())}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	want := referenceItems(t, docs, measurementsPath())
	if len(want) != 40 {
		t.Fatalf("reference = %d items, want 40", len(want))
	}
	for _, ms := range []int64{256, 512, 1 << 10} {
		for _, parts := range []int{1, 3} {
			env := func() *Env { return &Env{Source: src, MorselSize: ms} }
			got := resultItems(runBoth(t, scanJob(parts, measurementsPath()), env))
			if len(got) != len(want) {
				t.Fatalf("morsel=%d parts=%d: %d items, want %d", ms, parts, len(got), len(want))
			}
		}
	}
}

// TestStatsPerTaskMergeUnderRace pins the stats-merge discipline: every task
// accumulates into its own runtime.Stats and the executor folds them together
// exactly once after all workers have finished. Run with -race, a shared
// counter mutated from 8 scan workers (plus exchange consumers) would be
// reported; the totals check catches lost updates even without -race.
func TestStatsPerTaskMergeUnderRace(t *testing.T) {
	docs := map[string][]byte{}
	for i := 0; i < 4; i++ {
		docs[fmt.Sprintf("f%d.json", i)] = ndSensorFile(120, 60)
	}
	var wantBytes int64
	for _, d := range docs {
		wantBytes += int64(len(d))
	}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	const workers = 8
	for i := 0; i < 3; i++ {
		res, err := RunPipelined(twoStepGroupByJob(workers, workers/2),
			&Env{Source: src, MorselSize: 2 << 10, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.TuplesProduced != 480 {
			t.Errorf("run %d: tuples produced = %d, want 480 (lost update?)",
				i, res.Stats.TuplesProduced)
		}
		if res.Stats.BytesRead < wantBytes {
			t.Errorf("run %d: bytes read = %d, want >= %d", i, res.Stats.BytesRead, wantBytes)
		}
		if res.Stats.FilesRead != int64(len(docs)) {
			t.Errorf("run %d: files read = %d, want %d", i, res.Stats.FilesRead, len(docs))
		}
		if res.Stats.TuplesShuffled == 0 {
			t.Errorf("run %d: no shuffled tuples through the hash exchange", i)
		}
		if n := profiledTasks(res.Profile); n != workers+workers/2 {
			t.Errorf("run %d: %d profiled tasks, want %d", i, n, workers+workers/2)
		}
	}
}

// profiledTasks counts the fragment-partition tasks a profile has spans for.
func profiledTasks(p *Profile) int {
	tasks := map[[2]int]bool{}
	for _, sp := range p.Spans {
		tasks[[2]int{sp.Fragment, sp.Partition}] = true
	}
	return len(tasks)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestMorselScanErrorNamesByteRange: a parse error inside a split morsel must
// report the file and the failing byte range.
func TestMorselScanErrorNamesByteRange(t *testing.T) {
	// Valid newline-delimited records, then garbage past the first morsel.
	data := append(ndSensorFile(40, 100), []byte("{\"root\": [ {\"broken\": \n")...)
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{
		"/sensors": {"corrupt.json": data},
	}}
	_, err := RunStaged(scanJob(2, measurementsPath()), &Env{Source: src, MorselSize: 1 << 10})
	if err == nil {
		t.Fatal("expected parse error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "corrupt.json[") || !strings.Contains(msg, "):") {
		t.Errorf("error %q does not name the failing byte range", msg)
	}
	if !strings.Contains(msg, "offset") {
		t.Errorf("error %q does not carry a position", msg)
	}
}

// TestAccountantBalancesToZero: after a clean run every charge must be
// paired with a release — pooled frames, chunk buffers, item transients, and
// the held operator state all return to the accountant.
func TestAccountantBalancesToZero(t *testing.T) {
	jobs := map[string]*Job{
		"scan":         scanJob(2, measurementsPath()),
		"two-step-gby": twoStepGroupByJob(2, 2),
		"hash-join":    joinJob(2),
	}
	for name, job := range jobs {
		for mode, run := range map[string]func(*Job, *Env) (*Result, error){
			"staged":    RunStaged,
			"pipelined": RunPipelined,
		} {
			acct := frame.NewAccountant(0)
			if _, err := run(job, &Env{Source: testSource(), Accountant: acct}); err != nil {
				t.Fatalf("%s/%s: %v", name, mode, err)
			}
			if cur := acct.Current(); cur != 0 {
				t.Errorf("%s/%s: accountant balance = %d after clean end, want 0", name, mode, cur)
			}
			if acct.Peak() <= 0 {
				t.Errorf("%s/%s: peak = %d, want > 0", name, mode, acct.Peak())
			}
		}
	}
	// Same invariant on a morsel-split scan.
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{
		"/sensors": {"big.json": ndSensorFile(300, 100)},
	}}
	acct := frame.NewAccountant(0)
	if _, err := RunPipelined(scanJob(4, measurementsPath()), &Env{Source: src, Accountant: acct, MorselSize: 4 << 10}); err != nil {
		t.Fatal(err)
	}
	if cur := acct.Current(); cur != 0 {
		t.Errorf("morsel scan: accountant balance = %d after clean end, want 0", cur)
	}
}

// TestMorselQueueStaticDealBounds exercises the queue directly.
func TestMorselQueueStaticDealBounds(t *testing.T) {
	morsels := []morsel{
		{file: "a", start: 0, end: 10, first: true},
		{file: "a", start: 10, end: 20},
		{file: "a", start: 20, end: 30},
	}
	q := newMorselQueue(morsels, 2, false)
	if _, _, ok := q.take(-1); ok {
		t.Error("negative partition must get nothing")
	}
	if _, _, ok := q.take(7); ok {
		t.Error("out-of-range partition must get nothing")
	}
	got := map[int][]int64{}
	for p := 0; p < 2; p++ {
		for {
			m, stolen, ok := q.take(p)
			if !ok {
				break
			}
			if stolen {
				t.Errorf("static deal reported a steal for partition %d at %d", p, m.start)
			}
			got[p] = append(got[p], m.start)
		}
	}
	if len(got[0]) != 2 || got[0][0] != 0 || got[0][1] != 20 {
		t.Errorf("partition 0 morsels = %v", got[0])
	}
	if len(got[1]) != 1 || got[1][0] != 10 {
		t.Errorf("partition 1 morsels = %v", got[1])
	}
}
