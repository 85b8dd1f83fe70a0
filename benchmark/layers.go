package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"vxq/internal/core"
	"vxq/internal/frame"
	"vxq/internal/hyracks"
	"vxq/internal/index"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
	"vxq/internal/spill"
)

// The traced passes time each layer from outside, by calling its public
// functions the way the engine's scan does, single-threaded over the
// workload's own files. Every pass is a span in the benchmark's own code.

const ladderChunk = 64 << 10 // the engine's default scan chunk

// maxOpTuples caps the operator-only passes: enough tuples that hash tables
// leave the caches, few enough that a pass takes tens of milliseconds.
const maxOpTuples = 200_000

// scanPlan is what the ladder needs to know about the compiled query.
type scanPlan struct {
	scans int            // DATASCANs in the job
	path  jsonparse.Path // their common projection argument
}

func compileQuery(query string, partitions int) (*core.Compiled, error) {
	return core.CompileQuery(query, core.Options{
		Rules:      core.RuleConfig{PathRules: true, PipeliningRules: true, GroupByRules: true},
		Partitions: partitions})
}

// compilePlan compiles the query as the engine does and reads the DATASCANs
// off the physical plan, so the ladder follows whatever the rewrite rules
// push into the scan.
func compilePlan(query string, partitions int) (*scanPlan, error) {
	c, err := compileQuery(query, partitions)
	if err != nil {
		return nil, err
	}
	p := &scanPlan{}
	for _, f := range c.Job.Fragments {
		s, ok := f.Source.(hyracks.ScanSource)
		if !ok {
			continue
		}
		if p.scans > 0 && s.Project.String() != p.path.String() {
			return nil, fmt.Errorf("plan scans with two paths (%s, %s): the ladder handles one", p.path, s.Project)
		}
		p.scans++
		p.path = s.Project
	}
	if p.scans == 0 {
		return nil, fmt.Errorf("plan has no DATASCAN")
	}
	return p, nil
}

// ladderCounts are the work counts of one pass of the top rung.
type ladderCounts struct {
	records, encodedBytes, frames int64
}

// ladderPass runs rung k (1–5) once over the files: R1 reads, R2 adds
// ScanValues with a path that matches nothing, R3 ScanValues with the
// DATASCAN path and a no-op emit, R4 adds item.EncodeSeq into a reused
// buffer, R5 adds Frame.AppendTuple/Reset.
func ladderPass(k int, files []string, path jsonparse.Path) (ladderCounts, error) {
	var (
		c     ladderCounts
		lx    *jsonparse.Lexer
		buf   = make([]byte, ladderChunk)
		enc   []byte
		seq   = make(item.Sequence, 1)
		field = make([][]byte, 1)
		fr    = frame.New(0)
	)
	if k == 2 {
		path = jsonparse.Path{jsonparse.KeyStep("\x00no such key")}
	}
	emit := func(it item.Item) error {
		c.records++
		if k < 4 {
			return nil
		}
		seq[0] = it
		enc = item.EncodeSeq(enc[:0], seq)
		c.encodedBytes += int64(len(enc))
		if k < 5 {
			return nil
		}
		field[0] = enc
		if !fr.AppendTuple(field) {
			c.frames++
			fr.Reset()
			fr.AppendTuple(field)
		}
		return nil
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return c, err
		}
		if k == 1 {
			_, err = io.CopyBuffer(io.Discard, onlyReader{f}, buf)
		} else {
			if lx == nil {
				lx = jsonparse.NewStreamLexerAt(f, ladderChunk, 0)
			} else {
				lx.ResetStream(f, 0)
			}
			_, err = jsonparse.ScanValues(lx, path, -1, emit)
		}
		f.Close()
		if err != nil {
			return c, fmt.Errorf("ladder R%d: %s: %w", k, name, err)
		}
	}
	if fr.TupleCount() > 0 {
		c.frames++
	}
	return c, nil
}

// onlyReader hides *os.File's ReadFrom/WriteTo so io.CopyBuffer really reads
// through the 64 KiB buffer instead of splicing in the kernel.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// ladder runs every rung reps times and returns the fastest time of each
// (index 1–5) and the top rung's counts. The rungs are single-threaded CPU
// passes whose differences are the layer times: interference only ever adds
// time, so the minima are what repeats, and a median's noise (a few percent
// of a rung) would swamp the cheaper layers.
func ladder(tr *tracer, files []string, path jsonparse.Path, reps int) ([6]float64, ladderCounts, error) {
	var (
		rungs  [6]float64
		counts ladderCounts
	)
	top := tr.start("ladder", -1, 0)
	defer tr.end(top)
	for rep := 0; rep < reps; rep++ {
		for k := 1; k <= 5; k++ {
			s := tr.start(fmt.Sprintf("ladder.R%d", k), top, rep)
			c, err := ladderPass(k, files, path)
			sec := tr.end(s).seconds()
			if err != nil {
				return rungs, counts, err
			}
			counts = c
			if rep == 0 || sec < rungs[k] {
				rungs[k] = sec
			}
		}
	}
	return rungs, counts, nil
}

// timeReps runs f reps times under spans of the given name and returns the
// median wall time.
func timeReps(tr *tracer, name string, reps int, f func() error) (float64, error) {
	var samples []float64
	for rep := 0; rep < reps; rep++ {
		s := tr.start(name, -1, rep)
		err := f()
		samples = append(samples, tr.end(s).seconds())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(samples), nil
}

// boundaryPasses times the record-boundary index of the files: the
// sequential BoundaryScanner, and the speculative ParallelIndexer at workers.
func boundaryPasses(tr *tracer, files []string, workers, reps int) (seqS, parS float64, err error) {
	buf := make([]byte, ladderChunk)
	seqS, err = timeReps(tr, "jsonparse.boundary_seq", reps, func() error {
		for _, name := range files {
			f, err := os.Open(name)
			if err != nil {
				return err
			}
			bs := jsonparse.NewBoundaryScanner(index.DefaultSplitGrain)
			_, err = io.CopyBuffer(bs, onlyReader{f}, buf)
			f.Close()
			if err != nil {
				return err
			}
			bs.Close()
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	src := &runtime.DirSource{}
	pi := jsonparse.ParallelIndexer{Workers: workers}
	parS, err = timeReps(tr, "jsonparse.boundary_par", reps, func() error {
		for _, name := range files {
			size, err := src.Size(name)
			if err != nil {
				return err
			}
			open := func(off int64) (io.ReadCloser, error) { return src.OpenRange(name, off) }
			if _, err := pi.SplitsRange(open, size, index.DefaultSplitGrain, ladderChunk); err != nil {
				return err
			}
		}
		return nil
	})
	return seqS, parS, err
}

// joinRows shapes the measurements as the join sees them: [station, date,
// value] tuples, TMIN on the build side and TMAX on the probe side.
func joinRows(ms []measurement, dataType string) [][]item.Sequence {
	var rows [][]item.Sequence
	for _, m := range ms {
		if m.DataType != dataType {
			continue
		}
		rows = append(rows, []item.Sequence{item.Single(item.String(m.Station)),
			item.Single(item.String(m.Date)), item.Single(item.Number(m.Value))})
		if len(rows) == maxOpTuples {
			break
		}
	}
	return rows
}

// operatorPasses times single operators over pre-built frames of the
// workload's tuple shape: no scan, no executor. Rates are Mtuples/s.
func (r *runner) operatorPasses(ms []measurement, out map[string]float64) error {
	cols := func(n int) []runtime.Evaluator {
		e := make([]runtime.Evaluator, n)
		for i := range e {
			e[i] = runtime.ColumnEval{Col: i}
		}
		return e
	}
	rate := func(name string, tuples int, f func() (int64, error)) (float64, error) {
		s, err := timeReps(r.tr, name, r.sc.Reps, func() error { _, err := f(); return err })
		if err != nil || s == 0 {
			return 0, err
		}
		return float64(tuples) / s / 1e6, nil
	}
	var err error
	if r.w.GroupBy {
		var rows [][]item.Sequence
		for _, m := range ms {
			if m.DataType == "TMIN" && len(rows) < maxOpTuples {
				rows = append(rows, []item.Sequence{item.Single(item.String(m.Date)), item.Single(item.String(m.Station))})
			}
		}
		frames := hyracks.BenchFrames(rows, 0)
		spec := &hyracks.GroupBySpec{Keys: cols(1), Desc: "benchmark",
			Aggs: []hyracks.AggDef{{Fn: runtime.MustAgg("agg-count"), Arg: runtime.ColumnEval{Col: 1}}}}
		if out["hyracks.groupby_mtuples_per_s"], err = rate("hyracks.groupby", len(rows), func() (int64, error) {
			return hyracks.BenchGroupBy(spec, frames, false, false)
		}); err != nil {
			return err
		}
		if out["hyracks.shuffle_mtuples_per_s"], err = rate("hyracks.shuffle", len(rows), func() (int64, error) {
			return hyracks.BenchHashShuffle(cols(1), r.partitions, frames, false, false)
		}); err != nil {
			return err
		}
	}
	if r.w.Join {
		buildRows, probeRows := joinRows(ms, "TMIN"), joinRows(ms, "TMAX")
		build, probe := hyracks.BenchFrames(buildRows, 0), hyracks.BenchFrames(probeRows, 0)
		spec := &hyracks.JoinSpec{BuildKeys: cols(2), ProbeKeys: cols(2), Desc: "benchmark"}
		if out["hyracks.join_mtuples_per_s"], err = rate("hyracks.join", len(buildRows)+len(probeRows), func() (int64, error) {
			return hyracks.BenchHashJoin(spec, build, probe, false, false)
		}); err != nil {
			return err
		}
		if out["hyracks.shuffle_mtuples_per_s"], err = rate("hyracks.shuffle", len(probeRows), func() (int64, error) {
			return hyracks.BenchHashShuffle(cols(2), r.partitions, probe, false, false)
		}); err != nil {
			return err
		}
		if r.w.OpMemoryBudget > 0 {
			return r.spillPasses(probeRows, out)
		}
	}
	return nil
}

// spillPasses times spill.Writer and spill.Reader alone on the join's tuples.
func (r *runner) spillPasses(rows [][]item.Sequence, out map[string]float64) error {
	fields := make([][][]byte, len(rows))
	for i, row := range rows {
		fields[i] = frame.EncodeFields(row)
	}
	var writeS, readS []float64
	var bytes int64
	for rep := 0; rep < r.sc.Reps; rep++ {
		s := r.tr.start("spill.write", -1, rep)
		w, err := spill.NewWriter(r.ds.spillDir, spill.DefaultBlockSize)
		if err != nil {
			return err
		}
		for _, f := range fields {
			if _, err := w.Write(0, f); err != nil {
				w.Abort()
				return err
			}
		}
		run, err := w.Finish()
		writeS = append(writeS, r.tr.end(s).seconds())
		if err != nil {
			return err
		}
		bytes = run.Bytes
		s = r.tr.start("spill.read", -1, rep)
		err = readRun(run)
		readS = append(readS, r.tr.end(s).seconds())
		run.Remove()
		if err != nil {
			return err
		}
	}
	out["spill.write_mb_per_s"] = float64(bytes) / 1e6 / median(writeS)
	out["spill.read_mb_per_s"] = float64(bytes) / 1e6 / median(readS)
	return nil
}

func readRun(run *spill.Run) error {
	rd, err := run.Open()
	if err != nil {
		return err
	}
	defer rd.Close()
	for {
		if _, _, err := rd.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// sidecarPasses times index.LoadSidecar over the dataset's sidecars and
// reports their total size.
func (r *runner) sidecarPasses() (loadS float64, bytes int64, err error) {
	src := &runtime.DirSource{}
	loadS, err = timeReps(r.tr, "index.sidecar_load", r.sc.Reps, func() error {
		bytes = 0
		for _, name := range r.ds.files {
			ident, _ := src.Ident(name)
			path := index.SidecarPathFor(name, r.ds.cacheDir)
			if _, err := index.LoadSidecar(path, ident); err != nil {
				return err
			}
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			bytes += fi.Size()
		}
		return nil
	})
	return loadS, bytes, err
}

// profileKinds maps the engine profile's span kinds to the hyracks.*_self_s
// metric each is summed into.
var profileKinds = map[string]string{
	"scan": "hyracks.scan_self_s", "select": "hyracks.select_self_s", "assign": "hyracks.assign_self_s",
	"group-by": "hyracks.groupby_self_s", "join": "hyracks.join_self_s",
	"exchange": "hyracks.exchange_self_s", "receive": "hyracks.exchange_self_s",
	"sink": "hyracks.result_self_s",
}

// traced produces every per-layer metric: what the timed run counted, the
// 1-partition staged runs with and without the engine's profile, the ladder
// over the workload's files, and the single-layer passes.
func (r *runner) traced(t *timedRun, plan *scanPlan, ms []measurement, logicalBytes float64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	iters := float64(len(t.seconds))
	p50 := median(t.seconds)

	// vxq, timed run.
	records := t.statMedian(func(s runtime.Stats) int64 { return s.TuplesProduced })
	if records > 0 {
		out["vxq.allocs_per_record"] = float64(t.mallocs) / iters / records
		out["vxq.alloc_bytes_per_record"] = float64(t.allocB) / iters / records
	}
	out["vxq.gc_cycles"] = float64(t.gcCycles) / iters
	out["vxq.rss_peak_bytes"] = float64(t.rssPeak)
	out["vxq.samples"] = iters
	out["vxq.query_s_max"] = sorted(t.seconds)[len(t.seconds)-1]
	out["hyracks.tuples_produced"] = records
	out["hyracks.tuples_shuffled"] = t.statMedian(func(s runtime.Stats) int64 { return s.TuplesShuffled })
	out["hyracks.bytes_shuffled"] = t.statMedian(func(s runtime.Stats) int64 { return s.BytesShuffled })
	out["index.cold_index_builds"] = t.statMedian(func(s runtime.Stats) int64 { return s.ColdIndexBuilds })
	spilled := t.statMedian(func(s runtime.Stats) int64 { return s.SpilledBytes })
	out["spill.bytes_per_input_byte"] = spilled / logicalBytes
	out["spill.partitions"] = t.statMedian(func(s runtime.Stats) int64 { return s.SpillPartitions })
	out["spill.waves"] = t.statMedian(func(s runtime.Stats) int64 { return s.SpillWaves })
	out["index.build_s"] = r.ds.indexBuildS

	// core.
	var err error
	if out["core.compile_s"], err = timeReps(r.tr, "core.compile", 5*r.sc.Reps, func() error {
		_, err := compileQuery(r.query, r.partitions)
		return err
	}); err != nil {
		return nil, err
	}

	// vxq, traced run: 1 partition, staged executor, without and with the
	// engine's profile.
	opts := r.w.options(r.ds, 1)
	opts.Staged = true
	var (
		plainS, profS []float64
		self          = map[string][]float64{}
		last          *hyracks.Profile
		lastStats     runtime.Stats
	)
	for rep := 0; rep < r.sc.Reps; rep++ {
		// Whichever run goes second finds warmer caches; take turns.
		for _, profiled := range []bool{rep%2 == 1, rep%2 == 0} {
			name := "vxq.query_1p"
			if profiled {
				name = "vxq.query_1p_profiled"
			}
			opts.Profile = profiled
			s := r.tr.start(name, -1, rep)
			sec, res := r.iterate(opts, r.tr, s, rep)
			r.tr.end(s)
			if res == nil {
				return nil, fmt.Errorf("traced run: %w", r.firstErr)
			}
			if !profiled {
				plainS = append(plainS, sec)
				continue
			}
			profS = append(profS, sec)
			last, lastStats = res.Profile, res.Stats
			byMetric := map[string]float64{}
			for _, sp := range res.Profile.Spans {
				m, ok := profileKinds[sp.Kind]
				if !ok {
					m = "hyracks.other_self_s"
				}
				byMetric[m] += float64(sp.SelfNS) / 1e9
			}
			for m, v := range byMetric {
				self[m] = append(self[m], v)
			}
		}
	}
	r6 := median(plainS)
	out["vxq.query_1p_s"] = r6
	out["vxq.parallel_efficiency"] = r6 / (float64(r.partitions) * p50)
	out["vxq.trace_overhead_frac"] = (median(profS) - r6) / r6
	for m, v := range self {
		out[m] = median(v)
	}
	var morsels int64
	for _, sp := range last.Spans {
		morsels += sp.Morsels
		out["hyracks.frames_forwarded"] += float64(sp.FramesForwarded)
		out["hyracks.frames_rebuilt"] += float64(sp.FramesRebuilt)
		out["hyracks.hash_collisions"] += float64(sp.HashCollisions)
		out["hyracks.op_mem_peak_bytes"] = math.Max(out["hyracks.op_mem_peak_bytes"], float64(sp.MemPeak))
	}
	out["hyracks.morsels"] = float64(morsels)
	out["index.files_pruned_frac"] = float64(lastStats.FilesSkipped) / float64(len(r.ds.files)*plan.scans)
	if n := lastStats.MorselsSkipped + morsels; n > 0 {
		out["index.morsels_pruned_frac"] = float64(lastStats.MorselsSkipped) / float64(n)
	}
	if r.w.OpMemoryBudget > 0 {
		// How far over budget the operators would be: the same run unbudgeted.
		free := opts
		free.OpMemoryBudget, free.Profile = 0, true
		_, res := r.iterate(free, nil, -1, 0)
		if res == nil {
			return nil, fmt.Errorf("unbudgeted run: %w", r.firstErr)
		}
		var peak int64
		for _, sp := range res.Profile.Spans {
			peak = max(peak, sp.MemPeak)
		}
		out["spill.over_budget_x"] = float64(peak) / float64(r.w.OpMemoryBudget)
	}

	// The ladder. A pruned scan reads only part of the collection, so the
	// rungs — measured over all files — are scaled to the bytes the query read.
	raw, counts, err := ladder(r.tr, r.ds.files, plan.path, 2*r.sc.Reps-1)
	if err != nil {
		return nil, err
	}
	readFrac := math.Min(1, float64(lastStats.BytesRead)/logicalBytes)
	work := float64(plan.scans) * readFrac
	var rung [7]float64
	for k := 1; k <= 5; k++ {
		// Timer noise must not make a rung cheaper than the one below it, and
		// no rung can exceed the query it is part of.
		rung[k] = math.Min(math.Max(raw[k]*work, rung[k-1]), r6)
	}
	rung[6] = r6
	scannedMB := logicalBytes * readFrac / 1e6
	perSecond := func(amount, seconds float64) float64 {
		if seconds <= 0 {
			return 0
		}
		return amount / seconds
	}
	out["runtime.read_s"] = rung[1]
	out["runtime.read_mb_per_s"] = perSecond(scannedMB, rung[1])
	out["jsonparse.skip_s"] = rung[2] - rung[1]
	out["jsonparse.skip_mb_per_s"] = perSecond(scannedMB, rung[2]-rung[1])
	out["jsonparse.build_s"] = rung[3] - rung[2]
	out["item.encode_s"] = rung[4] - rung[3]
	out["frame.append_s"] = rung[5] - rung[4]
	out["hyracks.rest_s"] = rung[6] - rung[5]
	if n := float64(counts.records) * work; n > 0 {
		out["jsonparse.build_ns_per_record"] = (rung[3] - rung[2]) / n * 1e9
		out["item.encode_ns_per_record"] = (rung[4] - rung[3]) / n * 1e9
	}
	out["item.encoded_bytes_per_input_byte"] = float64(counts.encodedBytes) / float64(r.ds.bytes)
	out["frame.frames_per_mb"] = float64(counts.frames) / (float64(r.ds.bytes) / 1e6)
	out["vxq.scan_efficiency"] = perSecond(perSecond(scannedMB, r6), out["jsonparse.skip_mb_per_s"])
	out["hyracks.ladder_gap_frac"] = math.Abs(out["hyracks.scan_self_s"]-rung[5]) / r6

	// Single-layer passes.
	seqS, parS, err := boundaryPasses(r.tr, r.ds.files, r.partitions, r.sc.Reps)
	if err != nil {
		return nil, err
	}
	mb := float64(r.ds.bytes) / 1e6
	out["jsonparse.boundary_s"] = seqS
	out["jsonparse.boundary_mb_per_s"] = perSecond(mb, seqS)
	out["jsonparse.boundary_par_mb_per_s"] = perSecond(mb, parS)
	if err := r.operatorPasses(ms, out); err != nil {
		return nil, err
	}
	if r.w.Sidecars {
		loadS, bytes, err := r.sidecarPasses()
		if err != nil {
			return nil, err
		}
		out["index.sidecar_load_s"] = loadS
		out["index.sidecar_bytes_per_mb"] = float64(bytes) / mb
	}
	return out, nil
}
