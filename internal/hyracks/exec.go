package hyracks

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// Env configures a job execution.
type Env struct {
	Source     runtime.Source
	FrameSize  int
	Accountant *frame.Accountant
	// ChunkSize is the refill-buffer size of streaming scans
	// (jsonparse.DefaultChunkSize when <= 0).
	ChunkSize int
	// Indexes provides zone-map lookups for DATASCAN file pruning (may be
	// nil).
	Indexes runtime.IndexLookup
	// MorselSize is the byte-range granularity of morsel-driven scans
	// (DefaultMorselSize when <= 0): raw-JSON files larger than this are
	// split into independently schedulable byte ranges.
	MorselSize int64
	// ColdIndexMinBytes gates the cold-scan boundary pass: a raw-JSON file
	// at least this large with no recorded record-boundary index gets one
	// from the speculative parallel indexer at queue-build time, so even the
	// first scan of a huge file cuts morsels exactly on record starts
	// (DefaultColdIndexMinBytes when 0; negative disables the pass).
	ColdIndexMinBytes int64
	// ColdIndexWorkers is the worker count of that pass (GOMAXPROCS when
	// <= 0).
	ColdIndexWorkers int
	// Pool recycles tuple frames across operators and tasks; one is created
	// on demand when nil.
	Pool *frame.Pool
	// EagerReference runs the job with TaskCtx.EagerDecode set: operators use
	// their decoded-sequence reference implementations instead of the lazy
	// encoded-domain paths. Differential tests compare both modes; benchmarks
	// use it as the baseline.
	EagerReference bool
	// Profile collects per-operator metrics (Result.Profile): every stage
	// boundary is wrapped with timing and flow counters, gathered per task
	// and merged once at job end. Off by default — an unprofiled run builds
	// exactly the unwrapped chain and pays nothing.
	Profile bool
	// OpMemoryBudget bounds the bytes any one blocking operator instance
	// (group-by, join build, sort) may hold before it goes out of core:
	// group-by and join grace-hash-partition to disk, sort switches to
	// external merge. 0 (the default) never spills. Eager reference mode
	// never spills either — it stays the pure in-memory baseline.
	OpMemoryBudget int64
	// SpillDir is where spill files are created (the OS temp dir when empty).
	// All spill files are removed when the operator finishes — success,
	// error, or cancellation.
	SpillDir string
	// SpillPartitions is the grace-hash fan-out per spill wave (default 8).
	SpillPartitions int
}

func (e *Env) accountant() *frame.Accountant {
	if e.Accountant == nil {
		e.Accountant = frame.NewAccountant(0)
	}
	return e.Accountant
}

func (e *Env) pool() *frame.Pool {
	if e.Pool == nil {
		fs := e.FrameSize
		if fs <= 0 {
			fs = frame.DefaultFrameSize
		}
		e.Pool = frame.NewPool(fs, e.accountant())
	}
	return e.Pool
}

func (e *Env) morselOpts() morselOptions {
	return morselOptions{
		morselSize:       e.MorselSize,
		coldIndexMin:     e.ColdIndexMinBytes,
		coldIndexWorkers: e.ColdIndexWorkers,
	}
}

// buildScanQueues prepares one morsel queue per scan fragment (pruning
// zone-map-excluded files and morsels as a side effect) so every task of a
// fragment drains the same queue. It returns the queues and the merged
// pruning/cold-index counters.
func buildScanQueues(job *Job, env *Env, shared bool) (map[int]*morselQueue, queueStats, error) {
	var (
		queues map[int]*morselQueue
		qs     queueStats
	)
	for _, f := range job.Fragments {
		s, ok := f.Source.(ScanSource)
		if !ok {
			continue
		}
		q, sk, err := buildMorselQueue(env.Source, s, env.Indexes, f.Partitions, env.morselOpts(), shared)
		if err != nil {
			return nil, queueStats{}, err
		}
		if queues == nil {
			queues = make(map[int]*morselQueue)
		}
		queues[f.ID] = q
		qs.add(sk)
	}
	return queues, qs, nil
}

// TaskTime records the measured wall-clock work of one fragment-partition
// task. The staged scheduler produces clean single-threaded measurements that
// the virtual-time scheduler consumes.
type TaskTime struct {
	Fragment  int
	Partition int
	Elapsed   time.Duration
	// Morsels is the number of scan morsels this task processed (0 for
	// non-scan fragments). Under the shared queue it shows how work-stealing
	// balanced a skewed file set; under the static deal it shows the
	// deterministic per-partition split.
	Morsels int
	// Steals is how many of those morsels were taken off another partition's
	// static share (always 0 under the staged scheduler's round-robin deal).
	Steals int
}

// Result is the outcome of a job execution.
type Result struct {
	// Rows are the collector's tuples, one []item.Sequence per tuple.
	Rows [][]item.Sequence
	// Tasks are the per-fragment-partition work measurements.
	Tasks []TaskTime
	// Stats are the merged execution statistics.
	Stats runtime.Stats
	// PeakMemory is the accountant's high-water mark in bytes.
	PeakMemory int64
	// Profile is the per-operator profile tree and span list (nil unless
	// Env.Profile was set).
	Profile *Profile
}

// SortRows orders the result canonically (for deterministic comparison
// across schedulers and partition counts).
func (r *Result) SortRows() {
	sortRows(r.Rows)
}

func sortRows(rows [][]item.Sequence) {
	// Stable, like sortOp: rows that compare equal on every position keep
	// their relative order, so repeated canonicalizations agree bytewise.
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		n := min(len(a), len(b))
		for k := 0; k < n; k++ {
			if c := item.CompareSeq(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
}

// --- the job runner ----------------------------------------------------------

// RunStaged executes a job sequentially, one fragment-partition task at a
// time in fragment order, materializing every exchange. Results are identical
// to RunPipelined; in addition each task's single-threaded wall-clock work is
// measured cleanly (no scheduler interference), which is what the
// virtual-time cluster scheduler consumes.
func RunStaged(job *Job, env *Env) (*Result, error) { return runJob(job, env, false) }

// RunPipelined executes a job with one goroutine per fragment-partition
// task; exchanges are bounded channels, so producers and consumers overlap
// like Hyracks' pipelined connectors. Task timings include blocking time
// and are therefore not used for virtual-time scheduling (use RunStaged's).
func RunPipelined(job *Job, env *Env) (*Result, error) { return runJob(job, env, true) }

// jobRun is the state the tasks of one job execution share.
type jobRun struct {
	job    *Job
	env    *Env
	pool   *frame.Pool
	queues map[int]*morselQueue
	links  map[int]exchangeLink
	// collector gathers the result rows; the mutex serializes the pushes of
	// concurrent collector-partition tasks.
	collector lockedSink
	epoch     time.Time // job start; profile span times are relative to it

	// stop is closed by the first genuine task failure, which firstErr
	// records; tasks blocked on a channel link give up with errStopped.
	stop     chan struct{}
	failOnce sync.Once
	firstErr error
}

func (r *jobRun) fail(err error) {
	r.failOnce.Do(func() {
		r.firstErr = err
		close(r.stop)
	})
}

// runJob is the one executor. The two schedulers differ only in how the scan
// morsels are dealt, how a task is started, and the exchange link between
// producer and consumer tasks; everything a task does is task.run.
func runJob(job *Job, env *Env, pipelined bool) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	acct := env.accountant()
	// Pipelined tasks of a scan fragment drain one shared atomic cursor, so
	// partitions steal work from each other and a skewed file set leaves no
	// stragglers. Staged tasks run one after another — a shared cursor would
	// hand every morsel to whichever task runs first — so their queues are
	// dealt round-robin, which also keeps the per-task times the virtual-time
	// scheduler consumes deterministic.
	queues, qstats, err := buildScanQueues(job, env, pipelined)
	if err != nil {
		return nil, err
	}
	r := &jobRun{job: job, env: env, pool: env.pool(), queues: queues, stop: make(chan struct{})}
	producers := make(map[int]int, len(job.Exchanges))
	for _, f := range job.Fragments {
		if f.SinkExchange >= 0 {
			producers[f.SinkExchange] += f.Partitions
		}
	}
	r.links = make(map[int]exchangeLink, len(job.Exchanges))
	for _, e := range job.Exchanges {
		if pipelined {
			r.links[e.ID] = newChanLink(e.ConsumerPartitions, producers[e.ID], r.stop, r.pool)
		} else {
			r.links[e.ID] = &bufferLink{parts: make([][]*frame.Frame, e.ConsumerPartitions)}
		}
	}
	r.epoch = time.Now()

	var (
		tasks []*task
		wg    sync.WaitGroup
	)
launch:
	for _, f := range job.Fragments {
		for p := 0; p < f.Partitions; p++ {
			t := r.newTask(f, p)
			tasks = append(tasks, t)
			if pipelined {
				wg.Add(1)
				go func() {
					defer wg.Done()
					t.run()
				}()
			} else if t.run(); r.firstErr != nil {
				break launch
			}
		}
	}
	wg.Wait()
	if r.firstErr != nil {
		// Frames no consumer took go back to the pool so its outstanding-
		// frame accounting balances to zero.
		for _, l := range r.links {
			l.sweep(r.pool)
		}
		return nil, r.firstErr
	}

	// Per-task accumulation, merged once after every task has finished: each
	// task wrote only its own TaskCtx, runtime.Stats and profile, so nothing
	// was shared between workers.
	res := &Result{Rows: r.collector.Rows, PeakMemory: acct.Peak()}
	res.Stats.FilesSkipped = qstats.filesSkipped
	res.Stats.MorselsSkipped = qstats.morselsSkipped
	res.Stats.ColdIndexBuilds = qstats.coldIndexBuilds
	var profs []*taskProf
	for _, t := range tasks {
		res.Tasks = append(res.Tasks, t.time)
		res.Stats.Add(t.ctx.RT.Stats)
		if t.ctx.prof != nil {
			profs = append(profs, t.ctx.prof)
		}
	}
	if env.Profile {
		res.Profile = buildProfile(job, profs, time.Since(r.epoch).Nanoseconds())
	}
	return res, nil
}

// task is one fragment-partition unit of work.
type task struct {
	job  *jobRun
	frag *Fragment
	ctx  *TaskCtx
	time TaskTime
}

// newTask builds a task and its execution context — the one place a job's
// TaskCtx is put together.
func (r *jobRun) newTask(f *Fragment, partition int) *task {
	env := r.env
	ctx := &TaskCtx{
		RT: &runtime.Ctx{
			Source:     env.Source,
			Accountant: env.Accountant,
			Stats:      &runtime.Stats{},
			FrameSize:  env.FrameSize,
			ChunkSize:  env.ChunkSize,
			Indexes:    env.Indexes,
		},
		Partition:   partition,
		FrameSize:   env.FrameSize,
		EagerDecode: env.EagerReference,
		Pool:        r.pool,
		SpillDir:    env.SpillDir,
		SpillBudget: env.OpMemoryBudget,
		SpillFanout: env.SpillPartitions,
		morsels:     r.queues[f.ID],
	}
	if env.Profile {
		ctx.prof = newTaskProf(r.job, f, partition, r.epoch)
	}
	return &task{job: r, frag: f, ctx: ctx}
}

// run drives the task's source through its operator chain into the
// fragment's sink, records the measurements, and reports a failure to the
// job.
func (t *task) run() {
	r, f, ctx := t.job, t.frag, t.ctx
	var terminal Writer
	if f.SinkExchange >= 0 {
		e := r.job.exchange(f.SinkExchange)
		link := r.links[e.ID]
		// Signalled when the task ends, whether it closed normally or was
		// torn down after a failure, so consumers never wait on it forever.
		defer link.producerDone()
		dests := make([]frameDest, e.ConsumerPartitions)
		for i := range dests {
			dests[i] = link.dest(i)
		}
		terminal = newExchangeWriter(ctx, e, dests)
	} else {
		terminal = recycleSink{ctx: ctx, w: &r.collector}
	}
	chain := buildTaskChain(ctx, f, terminal)
	in := sourceInput{recv: func(exchID int, each func(*frame.Frame) error) error {
		return r.links[exchID].recv(ctx.Partition, each)
	}}
	start := time.Now()
	err := runSource(ctx, f, chain, in)
	elapsed := time.Since(start)
	t.time = TaskTime{
		Fragment: f.ID, Partition: ctx.Partition, Elapsed: elapsed,
		Morsels: ctx.MorselsScanned, Steals: ctx.MorselsStolen,
	}
	if ctx.prof != nil {
		ctx.prof.finish(ctx, start.Sub(r.epoch).Nanoseconds(), elapsed.Nanoseconds())
	}
	// A task torn down after another task's failure may surface errStopped
	// wrapped with scan context (e.g. a file path); only genuine first
	// failures are reported.
	if err != nil && !errors.Is(err, errStopped) {
		r.fail(err)
	}
}

var errStopped = fmt.Errorf("hyracks: execution aborted")

// lockedSink is the job's result collector.
type lockedSink struct {
	mu sync.Mutex
	CollectSink
}

func (s *lockedSink) Push(fr *frame.Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.CollectSink.Push(fr)
}

// --- exchange links ----------------------------------------------------------

// frameDest receives the frames routed to one consumer partition.
type frameDest interface {
	send(fr *frame.Frame) error
}

// exchangeLink is the transport of one exchange between its producer and
// consumer tasks.
type exchangeLink interface {
	// dest is the producer-side endpoint of one consumer partition.
	dest(part int) frameDest
	// recv hands consumer partition part's frames to each — which takes
	// ownership of every frame it is given — until the producers are done.
	recv(part int, each func(*frame.Frame) error) error
	// producerDone is called once by every producer task as it ends.
	producerDone()
	// sweep returns the frames no consumer took to the pool; it runs after a
	// failed job, once every task has ended.
	sweep(pool *frame.Pool)
}

// bufferLink is the staged scheduler's link: an unbounded slice of frames
// per consumer partition. Every producer has run to completion before the
// first consumer starts, so nothing ever waits.
type bufferLink struct {
	parts [][]*frame.Frame
}

type bufferDest struct {
	l    *bufferLink
	part int
}

func (d bufferDest) send(fr *frame.Frame) error {
	d.l.parts[d.part] = append(d.l.parts[d.part], fr)
	return nil
}

func (l *bufferLink) dest(part int) frameDest { return bufferDest{l: l, part: part} }

func (l *bufferLink) recv(part int, each func(*frame.Frame) error) error {
	// Frames are dropped from the buffer as they are delivered, so a large
	// staged run does not keep every intermediate and the error-path sweep
	// does not see a frame its consumer already recycled.
	q := l.parts[part]
	for i, fr := range q {
		q[i] = nil
		if err := each(fr); err != nil {
			l.parts[part] = q[i+1:]
			return err
		}
	}
	l.parts[part] = nil
	return nil
}

func (l *bufferLink) producerDone() {}

func (l *bufferLink) sweep(pool *frame.Pool) {
	for _, frames := range l.parts {
		for _, fr := range frames {
			pool.Put(fr)
		}
	}
}

// channelDepth is the frame buffer of one channel-link partition: enough
// for a producer to stay a few frames ahead of its consumer, small enough
// that the frames in flight per exchange stay a bounded handful.
const channelDepth = 4

// chanLink is the pipelined scheduler's link: one bounded channel per
// consumer partition, closed by the last producer to finish.
type chanLink struct {
	chans     []chan *frame.Frame
	producers atomic.Int32 // producer tasks still running
	stop      <-chan struct{}
	pool      *frame.Pool
}

func newChanLink(consumers, producers int, stop <-chan struct{}, pool *frame.Pool) *chanLink {
	l := &chanLink{chans: make([]chan *frame.Frame, consumers), stop: stop, pool: pool}
	for i := range l.chans {
		l.chans[i] = make(chan *frame.Frame, channelDepth)
	}
	l.producers.Store(int32(producers))
	return l
}

type chanDest struct {
	l    *chanLink
	part int
}

func (d chanDest) send(fr *frame.Frame) error {
	select {
	case d.l.chans[d.part] <- fr:
		return nil
	case <-d.l.stop:
		// The frame's ownership arrived with this call; with no receiver left
		// it goes back to the pool instead of leaking.
		d.l.pool.Put(fr)
		return errStopped
	}
}

func (l *chanLink) dest(part int) frameDest { return chanDest{l: l, part: part} }

func (l *chanLink) recv(part int, each func(*frame.Frame) error) error {
	for {
		select {
		case fr, open := <-l.chans[part]:
			if !open {
				return nil
			}
			if err := each(fr); err != nil {
				return err
			}
		case <-l.stop:
			return errStopped
		}
	}
}

func (l *chanLink) producerDone() {
	if l.producers.Add(-1) == 0 {
		for _, c := range l.chans {
			close(c)
		}
	}
}

func (l *chanLink) sweep(pool *frame.Pool) {
	for _, c := range l.chans {
		// Every task has ended, so nothing sends any more and len is exact.
		for len(c) > 0 {
			pool.Put(<-c)
		}
	}
}

// --- task plumbing -----------------------------------------------------------

// destWriter adapts a frameDest to the Writer interface. When it belongs to
// an exchange it counts the re-framed ("rebuilt") output flowing through it.
type destWriter struct {
	d  frameDest
	ew *exchangeWriter
}

func (w destWriter) Open() error { return nil }
func (w destWriter) Push(fr *frame.Frame) error {
	if w.ew != nil {
		w.ew.rebuilt++
		w.ew.tuplesOut += int64(fr.TupleCount())
		w.ew.bytesOut += int64(fr.Size())
	}
	return w.d.send(fr)
}
func (w destWriter) Close() error { return nil }

// exchangeWriter is the sink side of an exchange: it routes tuples to
// consumer partitions according to the exchange kind. Hash exchanges route
// per tuple, hashing the encoded key bytes directly (no field decode) unless
// EagerDecode asks for the decoded reference path. Merge and 1:1 exchanges
// route the entire input frame to a single destination, so they forward the
// frame itself — ownership passes to the receiver and no tuple is re-framed.
type exchangeWriter struct {
	ctx      *TaskCtx
	exch     *Exchange
	dests    []frameDest
	builders []*frameBuilder
	keys     *keyEncoder

	// Profile counters (a handful of adds per frame; see profExtras).
	forwarded int64 // whole frames handed to a destination untouched
	rebuilt   int64 // frames re-framed tuple by tuple through the builders
	tuplesOut int64
	bytesOut  int64
}

func newExchangeWriter(ctx *TaskCtx, exch *Exchange, dests []frameDest) *exchangeWriter {
	return &exchangeWriter{ctx: ctx, exch: exch, dests: dests}
}

func (w *exchangeWriter) Open() error {
	if w.exch.Kind == ExchangeHash {
		// Only hash exchanges re-frame tuples; merge and 1:1 forward whole
		// frames and need no builders.
		w.builders = make([]*frameBuilder, len(w.dests))
		for i, d := range w.dests {
			w.builders[i] = newFrameBuilder(w.ctx, destWriter{d: d, ew: w})
		}
		if !w.ctx.EagerDecode {
			w.keys = newKeyEncoder(w.exch.Keys)
		}
	}
	return nil
}

func (w *exchangeWriter) Push(fr *frame.Frame) error {
	if w.exch.Kind != ExchangeHash {
		// Whole-frame forwarding: account the shuffle stats for the frame's
		// tuples, then hand the frame itself to the one destination.
		if fr.TupleCount() == 0 {
			w.ctx.recycle(fr)
			return nil
		}
		p, err := w.route(nil)
		if err != nil {
			w.ctx.recycle(fr)
			return err
		}
		if st := w.ctx.RT.Stats; st != nil {
			st.TuplesShuffled += int64(fr.TupleCount())
			sz, err := fr.FieldsSize()
			if err != nil {
				w.ctx.recycle(fr)
				return err
			}
			st.BytesShuffled += sz
		}
		w.forwarded++
		w.tuplesOut += int64(fr.TupleCount())
		w.bytesOut += int64(fr.Size())
		return w.dests[p].send(fr)
	}
	defer w.ctx.recycle(fr)
	if w.ctx.EagerDecode {
		return forEachTuple(fr, func(fields []item.Sequence, raw [][]byte) error {
			p, err := w.route(fields)
			if err != nil {
				return err
			}
			return w.ship(p, raw)
		})
	}
	n := uint64(len(w.dests))
	return forEachTupleView(fr, false, func(lt *frame.LazyTuple) error {
		_, h, err := w.keys.resolve(w.ctx, lt)
		if err != nil {
			return err
		}
		return w.ship(int(h%n), lt.Raw())
	})
}

func (w *exchangeWriter) ship(p int, raw [][]byte) error {
	if st := w.ctx.RT.Stats; st != nil {
		st.TuplesShuffled++
		st.BytesShuffled += int64(tupleBytes(raw))
	}
	return w.builders[p].emit(raw)
}

func (w *exchangeWriter) route(fields []item.Sequence) (int, error) {
	n := len(w.dests)
	switch w.exch.Kind {
	case ExchangeMerge:
		return 0, nil
	case ExchangeOneToOne:
		if w.ctx.Partition >= n {
			return 0, fmt.Errorf("hyracks: 1:1 exchange with mismatched partition counts")
		}
		return w.ctx.Partition, nil
	case ExchangeHash:
		var h uint64 = 1469598103934665603
		for _, k := range w.exch.Keys {
			v, err := k.Eval(w.ctx.RT, runtime.SeqTuple(fields))
			if err != nil {
				return 0, err
			}
			h = h*1099511628211 ^ item.HashSeq(v)
		}
		return int(h % uint64(n)), nil
	default:
		return 0, fmt.Errorf("hyracks: unknown exchange kind %v", w.exch.Kind)
	}
}

func (w *exchangeWriter) Close() error {
	// Flush every builder even after a failure (first error wins): the
	// remaining frames must reach their destinations or be recycled there,
	// not sit forgotten in the builders.
	var err error
	for _, b := range w.builders {
		if ferr := b.flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// profExtras implements opStatser: the exchange's forwarded-vs-rebuilt frame
// split and its outbound flow.
func (w *exchangeWriter) profExtras(x *opExtras) {
	x.framesForwarded = w.forwarded
	x.framesRebuilt = w.rebuilt
	x.framesOut = w.forwarded + w.rebuilt
	x.tuplesOut = w.tuplesOut
	x.bytesOut = w.bytesOut
}

// runSource drives a fragment's source, pushing its tuples through w
// (already the head of the operator chain).
func runSource(ctx *TaskCtx, f *Fragment, w Writer, in sourceInput) error {
	if err := w.Open(); err != nil {
		// Operators downstream of the failure point may have opened and
		// charged memory; Close releases it (builders are nil-safe).
		_ = w.Close()
		return err
	}
	if err := feedSource(ctx, f, w, in); err != nil {
		// Best-effort close after failure; report the original error.
		_ = w.Close()
		return err
	}
	return w.Close()
}

// sourceInput carries the upstream frames for exchange-fed fragments.
type sourceInput struct {
	// recv yields the frames for this partition of the given exchange and
	// blocks until they are available (pipelined) or returns the buffered
	// ones (staged). It returns frames via the callback to allow streaming.
	recv func(exchID int, each func(*frame.Frame) error) error
}

func feedSource(ctx *TaskCtx, f *Fragment, w Writer, in sourceInput) error {
	switch s := f.Source.(type) {
	case ETSSource:
		fr := ctx.newFrame()
		fr.AppendTuple(nil)
		return w.Push(fr)
	case ScanSource:
		return runScan(ctx, s, f.Partitions, w)
	case ExchangeSource:
		return in.recv(s.Exchange, w.Push)
	case JoinSource:
		j := newJoiner(ctx, s.Spec)
		defer j.release()
		if err := in.recv(s.Build, j.build); err != nil {
			return err
		}
		if err := j.endBuild(&j.root); err != nil {
			return err
		}
		b := newFrameBuilder(ctx, w)
		if err := in.recv(s.Probe, func(fr *frame.Frame) error {
			return j.probe(fr, b)
		}); err != nil {
			b.discard()
			return err
		}
		if err := j.endProbe(&j.root, b); err != nil {
			b.discard()
			return err
		}
		if err := b.flush(); err != nil {
			return err
		}
		if ctx.prof != nil {
			// The joiner is part of the source stage (it feeds the chain, it
			// is not a Writer in it); attach its counters to the source span
			// before release drops the arena.
			j.profExtras(&ctx.prof.stages[0].x)
		}
		return nil
	default:
		return fmt.Errorf("hyracks: unknown source %T", f.Source)
	}
}

// runScan drains the fragment's morsel queue and emits one single-field
// tuple per projected item. Raw JSON morsels stream through a fixed chunk
// buffer (charged to the accountant), so scan memory is O(chunk + emitted
// item), independent of the file size. When no runner-built queue is
// present (a fragment run outside RunStaged/RunPipelined), an equivalent
// statically dealt queue is built on the fly.
func runScan(ctx *TaskCtx, s ScanSource, partitions int, w Writer) error {
	if ctx.RT == nil || ctx.RT.Source == nil {
		return fmt.Errorf("hyracks: scan without a data source")
	}
	q := ctx.morsels
	if q == nil {
		var (
			qs  queueStats
			err error
		)
		q, qs, err = buildMorselQueue(ctx.RT.Source, s, ctx.RT.Indexes, partitions, morselOptions{}, false)
		if err != nil {
			return err
		}
		if st := ctx.RT.Stats; st != nil {
			st.FilesSkipped += qs.filesSkipped
			st.MorselsSkipped += qs.morselsSkipped
			st.ColdIndexBuilds += qs.coldIndexBuilds
		}
	}
	sc := &scanState{ctx: ctx, b: newFrameBuilder(ctx, w), field: make([][]byte, 1), seq1: make(item.Sequence, 1)}
	for {
		m, stolen, ok := q.take(ctx.Partition)
		if !ok {
			break
		}
		ctx.MorselsScanned++
		if stolen {
			ctx.MorselsStolen++
		}
		if err := scanMorsel(ctx, sc, s, m); err != nil {
			sc.b.discard()
			return m.wrap(err)
		}
	}
	return sc.b.flush()
}

// scanState is the per-task scratch of a scan: the lexer (with its chunk and
// token buffers), the encode buffer, and the one-field tuple slice are all
// reused across every morsel and every emitted item, so the steady-state
// emit path allocates nothing beyond what the frame builder copies in.
type scanState struct {
	ctx   *TaskCtx
	b     *frameBuilder
	lx    *jsonparse.Lexer
	enc   []byte
	field [][]byte      // len 1, points at enc
	seq1  item.Sequence // len 1, the item being emitted
}

// emit encodes one projected item into the reusable buffer and appends it to
// the current frame (which copies the bytes, so the buffer is free again).
func (sc *scanState) emit(it item.Item) error {
	if st := sc.ctx.RT.Stats; st != nil {
		st.TuplesProduced++
	}
	release := sc.ctx.account(item.SizeBytes(it))
	sc.seq1[0] = it
	sc.enc = item.EncodeSeq(sc.enc[:0], sc.seq1)
	sc.field[0] = sc.enc
	err := sc.b.emit(sc.field)
	sc.seq1[0] = nil
	release()
	return err
}

// scanMorsel streams one morsel's records into the frame builder. Errors are
// wrapped with the morsel's location by the caller.
func scanMorsel(ctx *TaskCtx, sc *scanState, s ScanSource, m morsel) error {
	if s.Format == FormatADM {
		return scanADM(ctx, sc, s, m)
	}
	src := ctx.RT.Source
	st := ctx.RT.Stats
	var (
		rc   io.ReadCloser
		base int64
		err  error
	)
	if m.start > 0 {
		ro, ok := src.(runtime.RangeOpener)
		if !ok {
			return fmt.Errorf("source cannot open byte ranges")
		}
		if m.aligned {
			// The split index guarantees start is a record start: open there
			// directly, nothing to re-align.
			base = m.start
		} else {
			// Open one byte early: if the byte at start-1 is the separating
			// newline, the first record of this morsel starts exactly at start.
			base = m.start - 1
		}
		rc, err = ro.OpenRange(m.file, base)
	} else {
		rc, err = src.Open(m.file)
	}
	if err != nil {
		return err
	}
	if st != nil && m.countsFile {
		st.FilesRead++
	}
	chunk := ctx.RT.ScanChunkSize()
	cr := &runtime.CountingReader{R: rc}
	if sc.lx == nil {
		sc.lx = jsonparse.NewStreamLexerAt(cr, chunk, base)
	} else {
		sc.lx.ResetStream(cr, base)
	}
	release := ctx.account(int64(chunk))
	err = scanMorselRecords(sc, s, m)
	release()
	if st != nil {
		st.BytesRead += cr.N
	}
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return err
}

func scanMorselRecords(sc *scanState, s ScanSource, m morsel) error {
	if !m.first && !m.aligned {
		// Align to the first record boundary at or after m.start: skip past
		// the next newline. No newline left means no record starts here.
		// (Aligned morsels were opened exactly at a known record start.)
		ok, err := sc.lx.SkipPastNewline()
		if err != nil || !ok {
			return err
		}
	}
	limit := m.end
	if m.wholeFile() {
		limit = -1
	}
	_, err := jsonparse.ScanValues(sc.lx, s.Project, limit, sc.emit)
	return err
}

// scanADM streams one binary pre-converted document through a chunked
// decoder: the raw encoding is never materialized whole, only the decoded
// item tree is (whole-document materialization is inherent to the format —
// the AsterixDB behaviour the paper attributes the performance gap to — but
// the former whole-file read buffer is gone). ADM files are never split, so
// the morsel always covers the whole file.
func scanADM(ctx *TaskCtx, sc *scanState, s ScanSource, m morsel) error {
	rc, err := ctx.RT.Source.Open(m.file)
	if err != nil {
		return err
	}
	defer rc.Close()
	if st := ctx.RT.Stats; st != nil {
		st.FilesRead++
	}
	chunk := ctx.RT.ScanChunkSize()
	// Small pre-converted documents are common (record-granular ADM); cap the
	// decode buffer at the file size plus the trailing-bytes probe so a tiny
	// file does not pay (or account) a full chunk.
	if szr, ok := ctx.RT.Source.(runtime.Sizer); ok {
		if sz, serr := szr.Size(m.file); serr == nil && sz+1 < int64(chunk) {
			chunk = int(sz) + 1
		}
	}
	cr := &runtime.CountingReader{R: rc}
	release := ctx.account(int64(chunk))
	dec, doc, err := item.DecodeReader(cr, chunk)
	if err == nil {
		var trailing bool
		if trailing, err = dec.TrailingByte(); err == nil && trailing {
			err = fmt.Errorf("trailing bytes after ADM document (offset %d)", dec.Consumed())
		}
	}
	release()
	if st := ctx.RT.Stats; st != nil {
		st.BytesRead += cr.N
	}
	if err != nil {
		return err
	}
	releaseDoc := ctx.account(item.SizeBytes(doc))
	defer releaseDoc()
	for _, it := range jsonparse.ApplyPath(doc, s.Project) {
		if err := sc.emit(it); err != nil {
			return err
		}
	}
	return nil
}
