package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"vxq"
	"vxq/internal/runtime"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the line a single-workload run prints last on standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is what -out records per workload: the result line plus what a
// reader needs to interpret and compare it.
type runDetail struct {
	Workload string `json:"workload"`
	Dataset  string `json:"dataset"`
	Seed     int64  `json:"seed"`
	Scale    string `json:"scale"`
	Files    int    `json:"files"`
	Bytes    int64  `json:"bytes"`
	Records  int    `json:"records"`
	// Spread is, per end-to-end metric, how far the run's own samples say
	// its median may be off, as a share of that median (see medianSpread).
	Spread map[string]float64 `json:"spread"`
	// QuerySeconds are the timed iterations' wall times, in order.
	QuerySeconds []float64 `json:"query_seconds"`
	Error        string    `json:"error,omitempty"`
	Result       runResult `json:"result"`
}

// runner executes one workload's iterations and checks their answers.
type runner struct {
	w          workload
	ds         *dataset
	sc         scale
	query      string
	partitions int
	tr         *tracer

	attempted, failed int
	firstErr          error
	// Distinct result digests seen, with one copy of the items behind each:
	// the oracle checks every distinct result once, after the measurements,
	// so its memory never shows in the engine's numbers.
	results map[[sha256.Size]byte]*resultSet
}

type resultSet struct {
	texts []string
	runs  int
}

func (r *runner) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// iterate is "documents to answer" as a CLI user sees it: a fresh engine, one
// mount, one query, the result digest. It returns the wall time and the
// engine's result, or nil when the query failed.
func (r *runner) iterate(opts vxq.Options, tr *tracer, parent, iter int) (float64, *vxq.Result) {
	r.attempted++
	start := time.Now()
	s := tr.start("engine.new_mount", parent, iter)
	eng := vxq.New(opts)
	eng.Mount("/sensors", r.ds.dir)
	tr.end(s)
	s = tr.start("engine.query", parent, iter)
	res, err := eng.Query(r.query)
	tr.end(s)
	if err != nil {
		r.fail(err)
		return 0, nil
	}
	s = tr.start("result.digest", parent, iter)
	texts := make([]string, len(res.Items))
	for i, it := range res.Items {
		texts[i] = vxq.JSON(it)
	}
	sort.Strings(texts)
	h := sha256.New()
	for _, t := range texts {
		io.WriteString(h, t)
		h.Write([]byte{'\n'})
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	tr.end(s)
	seconds := time.Since(start).Seconds()
	if rs := r.results[sum]; rs != nil {
		rs.runs++
	} else {
		r.results[sum] = &resultSet{texts: texts, runs: 1}
	}
	return seconds, res
}

// verify checks every distinct result against the oracle's answer.
func (r *runner) verify(want answer) {
	for _, rs := range r.results {
		if err := want.check(rs.texts); err != nil {
			r.failed += rs.runs
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("wrong answer: %w", err)
			}
		}
	}
}

// timedRun is the outcome of the closed loop of one client.
type timedRun struct {
	seconds  []float64
	peakMem  []float64
	stats    []runtime.Stats
	mallocs  uint64
	allocB   uint64
	gcCycles uint32
	rssPeak  int64
}

// statMedian is the median over the iterations of one Stats counter.
func (t *timedRun) statMedian(get func(runtime.Stats) int64) float64 {
	v := make([]float64, len(t.stats))
	for i, s := range t.stats {
		v[i] = float64(get(s))
	}
	return median(v)
}

// timed runs warm-ups, then iterations until both minSamples and the time
// budget are met, stopping early only at 1.4 × budget.
func (r *runner) timed(budget float64) *timedRun {
	opts := r.w.options(r.ds, r.partitions)
	for i := 0; i < r.sc.WarmUps; i++ {
		r.iterate(opts, nil, -1, i)
	}
	t := &timedRun{}
	resetPeakRSS()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	start := time.Now()
	for {
		elapsed := time.Since(start).Seconds()
		if len(t.seconds) >= r.sc.MinSamples && elapsed >= budget || elapsed >= 1.4*budget && len(t.seconds) > 0 {
			break
		}
		if r.failed > 3 && len(t.seconds) == 0 {
			break // nothing works; do not spin until the cap
		}
		sec, res := r.iterate(opts, nil, -1, len(t.seconds))
		if res == nil {
			continue
		}
		t.seconds = append(t.seconds, sec)
		t.peakMem = append(t.peakMem, float64(res.PeakMemory))
		t.stats = append(t.stats, res.Stats)
	}
	goruntime.ReadMemStats(&m1)
	t.mallocs, t.allocB, t.gcCycles = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	t.rssPeak = peakRSS()
	return t
}

// resetPeakRSS returns freed heap to the OS and asks the kernel to restart the
// process's resident-set high-water mark, so set-up memory (whole generated
// files) does not count as the engine's. Where the kernel refuses, the mark
// simply includes set-up.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSS reads the resident-set high-water mark (0 where /proc has none).
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

// runWorkload is one single-workload run: set-up, the timed loop, with
// trace > 0 the traced passes, then the oracle check.
// trace: 0 = end-to-end metrics, 1 = per-layer metrics, 2 = both.
func runWorkload(w workload, sc scale, seed int64, budget float64, trace int, workDir, traceOut string) (*runDetail, error) {
	root, err := os.MkdirTemp(workDir, "vxqbench-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	tr := newTracer(w.Name)
	ds, setupS, err := setupDataset(tr, datasets[w.Dataset], sc, seed, root)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := &runner{w: w, ds: ds, sc: sc, query: w.query(ds), partitions: min(2, goruntime.NumCPU()), tr: tr,
		results: map[[sha256.Size]byte]*resultSet{}}
	plan, err := compilePlan(r.query, r.partitions)
	if err != nil {
		return nil, err
	}
	logicalBytes := float64(ds.bytes) * float64(plan.scans)

	timedBudget := budget
	if trace == 1 {
		// The traced passes need most of the run; the timed loop only has to
		// feed the per-layer metrics that come from it.
		timedBudget = budget / 3
	}
	t := r.timed(timedBudget)
	if len(t.seconds) == 0 {
		return nil, fmt.Errorf("no iteration succeeded: %w", r.firstErr)
	}
	metrics := map[string]metricValue{}
	put := func(defs []metricDef, name string, v float64) {
		metrics[name] = metricValue{Value: v, Unit: unitOf(defs, name)}
	}
	p50 := median(t.seconds)
	if trace != 1 {
		put(endToEnd, "query_s_p50", p50)
		put(endToEnd, "mb_per_s", logicalBytes/1e6/p50)
		put(endToEnd, "peak_mem_bytes", median(t.peakMem))
		put(endToEnd, "setup_s", median(setupS))
	}

	// The oracle's input is loaded only now: the timed loop and its memory
	// counters are done.
	ms, err := loadMeasurements(ds.files)
	if err != nil {
		return nil, err
	}
	lo, hi := ds.rangeBounds()
	want, err := expected(w.Answer, ms, lo, hi)
	if err != nil {
		return nil, err
	}
	if trace > 0 {
		layers, err := r.traced(t, plan, ms, logicalBytes)
		if err != nil {
			return nil, err
		}
		for name, v := range layers {
			put(perLayer, name, v)
		}
	}
	r.verify(want)

	d := &runDetail{Workload: w.Name, Dataset: ds.spec.Name, Seed: seed, Scale: sc.Name,
		Files: len(ds.files), Bytes: ds.bytes, Records: ds.records, QuerySeconds: t.seconds,
		Spread: map[string]float64{
			"query_s_p50":    medianSpread(t.seconds),
			"mb_per_s":       medianSpread(t.seconds),
			"peak_mem_bytes": medianSpread(t.peakMem),
			"setup_s":        medianSpread(setupS),
		},
		Result: runResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}}
	if r.firstErr != nil {
		d.Error = r.firstErr.Error()
	}
	if traceOut != "" {
		if err := writeSpans(traceOut, tr.spans); err != nil {
			return nil, err
		}
	}
	return d, nil
}
