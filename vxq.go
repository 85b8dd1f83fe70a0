// Package vxq is a parallel and scalable processor for JSON data: a Go
// reproduction of "A Parallel and Scalable Processor for JSON Data"
// (Pavlopoulou et al., EDBT 2018), which extended Apache VXQuery with the
// JSONiq extension to XQuery and three categories of rewrite rules so that
// raw JSON files can be queried on the fly — no load phase, no
// pre-processing — with pipelined, partitioned-parallel execution and a
// small memory footprint.
//
// The engine stack mirrors the paper's (Fig. 1): a Hyracks-like dataflow
// engine at the bottom (frames of serialized tuples, push-based operators,
// exchange connectors), an Algebricks-like algebra layer in the middle
// (logical plans, rewrite rules to fixpoint, physical compilation), and the
// JSONiq front end with the paper's rule categories on top:
//
//   - path expression rules (§4.1): unnesting is merged with
//     keys-or-members so items stream one at a time;
//   - pipelining rules (§4.2): collection access becomes a DATASCAN whose
//     second argument — a projection path — is applied *while parsing*, so
//     only matching objects are ever materialized, and execution becomes
//     partitioned-parallel;
//   - group-by rules (§4.3): scalar aggregates over grouped sequences are
//     converted to incremental aggregates and pushed into the GROUP-BY,
//     enabling two-step (local/global) parallel aggregation.
//
// # Quick start
//
//	eng := vxq.New(vxq.Options{Partitions: 4})
//	eng.Mount("/sensors", "/data/sensors")  // a directory of JSON files
//	res, err := eng.Query(`
//	    for $r in collection("/sensors")("root")()("results")()
//	    where $r("dataType") eq "TMIN"
//	    group by $date := $r("date")
//	    return count($r("station"))`)
//	if err != nil { ... }
//	for _, it := range res.Items { fmt.Println(vxq.JSON(it)) }
package vxq

import (
	"fmt"
	"io"

	"vxq/internal/core"
	"vxq/internal/frame"
	"vxq/internal/hyracks"
	"vxq/internal/index"
	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// Item is a value of the JSONiq data model (object, array, string, number,
// boolean, null, or dateTime).
type Item = item.Item

// Sequence is an ordered sequence of items, the value domain of JSONiq
// expressions.
type Sequence = item.Sequence

// JSON renders an item as canonical JSON text.
func JSON(it Item) string { return item.JSON(it) }

// Options configures an Engine.
type Options struct {
	// Partitions is the degree of partitioned parallelism for collection
	// scans (the paper uses one partition per core). Default 1.
	Partitions int
	// DisablePathRules turns off the path expression rules (§4.1).
	DisablePathRules bool
	// DisablePipeliningRules turns off the pipelining rules (§4.2).
	DisablePipeliningRules bool
	// DisableGroupByRules turns off the group-by rules (§4.3).
	DisableGroupByRules bool
	// MorselSize is the byte-range granularity of morsel-driven scans
	// (default 4 MiB). Raw JSON files larger than this are split into
	// independently schedulable byte ranges, so a handful of oversized files
	// no longer serializes onto a single partition. BuildIndex records zone
	// stats every MorselSize/8 bytes, so warm scans can skip individual
	// morsels whose value range excludes a query's predicate, not just
	// whole files.
	MorselSize int64
	// Staged selects the staged executor (sequential, per-task timing)
	// instead of the default pipelined (goroutine) executor. Results are
	// identical.
	Staged bool
	// Profile collects per-operator metrics during execution and attaches
	// the merged profile to Result.Profile. Collection wraps every operator
	// boundary; overhead is a few percent at most, and exactly zero when off.
	Profile bool
	// CacheDir is where BuildIndex/BuildIndexes write the persistent
	// zone-index sidecars ("" = next to each data file). Useful when data
	// directories are read-only.
	CacheDir string
	// DisableSidecars turns off sidecar persistence entirely: indexes stay
	// in-memory, nothing is written next to the data, and nothing is loaded
	// from prior runs.
	DisableSidecars bool
	// PlanCacheSize bounds the compiled-plan cache (entries): repeated
	// queries — same text modulo whitespace, same rule options — skip
	// parse, rewrite and physical planning. 0 means DefaultPlanCacheSize;
	// negative disables the cache.
	PlanCacheSize int
	// OpMemoryBudget bounds the bytes any one blocking operator instance
	// (group-by, join build, sort) may hold before it goes out of core:
	// group-by and join grace-hash-partition their state to disk and recurse,
	// sort switches to external merge. Results are identical to in-memory
	// execution. 0 (the default) never spills.
	OpMemoryBudget int64
	// SpillDir is where out-of-core operators place their temporary partition
	// and run files ("" = the OS temp dir). Spill files are always removed
	// when the query finishes — success or failure.
	SpillDir string
}

func (o Options) ruleConfig() core.RuleConfig {
	return core.RuleConfig{
		PathRules:       !o.DisablePathRules,
		PipeliningRules: !o.DisablePipeliningRules,
		GroupByRules:    !o.DisableGroupByRules,
	}
}

// Engine compiles and executes JSONiq queries over mounted collections of
// raw JSON files.
type Engine struct {
	opts    Options
	mounts  map[string]string
	docs    map[string]map[string][]byte
	indexes *index.Registry
	plans   *planCache
}

// New creates an engine.
func New(opts Options) *Engine {
	if opts.Partitions <= 0 {
		opts.Partitions = 1
	}
	e := &Engine{
		opts:   opts,
		mounts: map[string]string{},
		docs:   map[string]map[string][]byte{},
	}
	e.indexes = index.NewRegistry(func(file string) (runtime.FileIdent, bool) { return e.source().Ident(file) })
	if opts.PlanCacheSize >= 0 {
		size := opts.PlanCacheSize
		if size == 0 {
			size = DefaultPlanCacheSize
		}
		e.plans = newPlanCache(size)
	}
	if !opts.DisableSidecars {
		e.indexes.SetPersistence(&index.Persistence{Dir: opts.CacheDir})
	}
	return e
}

// Mount registers a directory of JSON files as a collection, addressable
// from queries as collection(name). Mounting a name drops the zone stats
// held in memory for it; sidecars still serve the files they match.
func (e *Engine) Mount(name, dir string) {
	e.mounts[name] = dir
	e.indexes.Drop(name)
}

// MountDocs registers an in-memory set of documents as a collection.
// In-memory documents have no identity to revalidate, so re-mounting a name
// drops its zone stats: rebuild the index after changing the documents.
func (e *Engine) MountDocs(name string, docs map[string][]byte) {
	e.docs[name] = docs
	e.indexes.Drop(name)
}

// BuildIndex builds a zone-map index over a scalar path of a collection,
// written in JSONiq postfix syntax, e.g.
//
//	eng.BuildIndex("/sensors", `("root")()("results")()("date")`)
//
// It records the min/max value at the path every MorselSize/8 bytes of each
// file. Queries whose selections bound that path with constant comparisons
// then skip files, and morsels of files, whose value range cannot match —
// the paper's §6 future-work direction. The index reflects the collection
// at build time: a file that changes afterwards (a new size or mtime)
// stops pruning until the next build, and so does a re-mounted collection.
func (e *Engine) BuildIndex(collection, path string) error {
	return e.BuildIndexes(collection, path)
}

// BuildIndexes builds zone maps over several scalar paths of one collection
// with a single scan of its files: each file is read once and every path's
// min/max feeds off the same parsed records. With sidecars enabled the
// result is persisted next to each file (or under CacheDir); BuildIndex and
// BuildIndexes are the only writers — a plain query never writes a sidecar.
func (e *Engine) BuildIndexes(collection string, paths ...string) error {
	if len(paths) == 0 {
		return fmt.Errorf("vxq: no index paths")
	}
	pp := make([]jsonparse.Path, len(paths))
	for i, s := range paths {
		p, err := jsonparse.ParsePath(s)
		if err != nil {
			return err
		}
		pp[i] = p
	}
	ms := e.opts.MorselSize
	if ms <= 0 {
		ms = hyracks.DefaultMorselSize
	}
	zms, err := index.BuildWith(e.source(), collection, pp, max(ms/8, 1))
	if err != nil {
		return err
	}
	for _, zm := range zms {
		e.indexes.Add(zm)
	}
	return nil
}

// source builds the engine's data source view.
func (e *Engine) source() *compositeSource {
	return &compositeSource{
		dirs: &runtime.DirSource{Mounts: e.mounts},
		mem:  &runtime.MemSource{Collections: e.docs},
	}
}

type compositeSource struct {
	dirs *runtime.DirSource
	mem  *runtime.MemSource
}

func (s *compositeSource) Files(collection string) ([]string, error) {
	if _, ok := s.dirs.Mounts[collection]; ok {
		return s.dirs.Files(collection)
	}
	return s.mem.Files(collection)
}

// Open is the streaming read path: in-memory documents win, directory
// mounts are the fallback.
func (s *compositeSource) Open(path string) (io.ReadCloser, error) {
	if rc, err := s.mem.Open(path); err == nil {
		return rc, nil
	}
	return s.dirs.Open(path)
}

// OpenRange opens a file at a byte offset, enabling morsel-split scans over
// both in-memory documents and directory mounts.
func (s *compositeSource) OpenRange(path string, offset int64) (io.ReadCloser, error) {
	if rc, err := s.mem.OpenRange(path, offset); err == nil {
		return rc, nil
	}
	return s.dirs.OpenRange(path, offset)
}

// Size reports a file's size without reading it.
func (s *compositeSource) Size(path string) (int64, error) {
	if n, err := s.mem.Size(path); err == nil {
		return n, nil
	}
	return s.dirs.Size(path)
}

// Ident reports a file's durable identity. In-memory documents have none
// (ok=false), so sidecars never cover them; directory files get theirs from
// the filesystem (DirSource.Ident).
func (s *compositeSource) Ident(path string) (runtime.FileIdent, bool) {
	if _, err := s.mem.Size(path); err == nil {
		return s.mem.Ident(path)
	}
	return s.dirs.Ident(path)
}

// CacheInfo reports how the engine's caches served one query.
type CacheInfo struct {
	// PlanHit is true when compilation was skipped (plan cache).
	PlanHit bool
}

// Result is a query's outcome.
type Result struct {
	// Items is the result sequence, one item per result tuple, in a
	// deterministic (sorted) order.
	Items []Item
	// Stats are the execution statistics (bytes read, tuples produced,
	// bytes shuffled between partitions, ...).
	Stats runtime.Stats
	// PeakMemory is the engine's accounted memory high-water mark.
	PeakMemory int64
	// OriginalPlan and OptimizedPlan are the logical plans before and
	// after the rewrite rules.
	OriginalPlan, OptimizedPlan string
	// PhysicalPlan is the compiled Hyracks job.
	PhysicalPlan string
	// Profile is the per-operator execution profile (nil unless
	// Options.Profile was set).
	Profile *hyracks.Profile
	// Cache reports whether the plan cache served this query.
	Cache CacheInfo
}

// Query compiles and executes a JSONiq query. With the plan cache enabled
// (see Options.PlanCacheSize), a repeated query skips compilation;
// Result.Cache reports whether it did. Execution always runs.
func (e *Engine) Query(query string) (*Result, error) {
	key := normalizeQuery(query) + "\x00" + e.optionFingerprint()
	compiled, planHit, err := e.compileCached(query, key)
	if err != nil {
		return nil, err
	}
	env := &hyracks.Env{
		Source:         e.source(),
		Accountant:     frame.NewAccountant(0),
		Indexes:        e.indexes,
		MorselSize:     e.opts.MorselSize,
		Profile:        e.opts.Profile,
		OpMemoryBudget: e.opts.OpMemoryBudget,
		SpillDir:       e.opts.SpillDir,
	}
	var res *hyracks.Result
	if e.opts.Staged {
		res, err = hyracks.RunStaged(compiled.Job, env)
	} else {
		res, err = hyracks.RunPipelined(compiled.Job, env)
	}
	if err != nil {
		return nil, err
	}
	// Canonical order for determinism — unless the query itself orders its
	// result, in which case that order is preserved.
	if !compiled.Ordered {
		res.SortRows()
	}
	out := &Result{
		Stats:         res.Stats,
		PeakMemory:    res.PeakMemory,
		OriginalPlan:  compiled.OriginalPlan,
		OptimizedPlan: compiled.OptimizedPlan,
		PhysicalPlan:  compiled.Job.String(),
		Profile:       res.Profile,
		Cache:         CacheInfo{PlanHit: planHit},
	}
	for _, row := range res.Rows {
		if len(row) != 1 {
			return nil, fmt.Errorf("vxq: internal error: result tuple with %d fields", len(row))
		}
		out.Items = append(out.Items, row[0]...)
	}
	return out, nil
}

// optionFingerprint encodes the compile-relevant options into the cache key:
// two engines (or one reconfigured engine) disagree on plans exactly when
// their fingerprints differ.
func (e *Engine) optionFingerprint() string {
	rc := e.opts.ruleConfig()
	return fmt.Sprintf("p%d:%t%t%t", e.opts.Partitions, rc.PathRules, rc.PipeliningRules, rc.GroupByRules)
}

// compileCached compiles through the plan cache. planHit reports whether
// compilation was skipped.
func (e *Engine) compileCached(query, key string) (c *core.Compiled, planHit bool, err error) {
	if e.plans == nil {
		c, err = e.compile(query)
		return c, false, err
	}
	if c, ok := e.plans.get(key); ok {
		return c, true, nil
	}
	c, err = e.compile(query)
	if err != nil {
		return nil, false, err
	}
	e.plans.put(key, c)
	return c, false, nil
}

// CacheStats is a snapshot of the engine's cache counters.
type CacheStats struct {
	// PlanHits / PlanMisses count compiled-plan cache outcomes.
	PlanHits, PlanMisses int64
	// SidecarLoads / SidecarMisses / SidecarWrites count persistent
	// zone-index sidecar traffic.
	SidecarLoads, SidecarMisses, SidecarWrites int64
}

// CacheStats reports the engine's cache counters.
func (e *Engine) CacheStats() CacheStats {
	var cs CacheStats
	if e.plans != nil {
		e.plans.mu.Lock()
		cs.PlanHits, cs.PlanMisses = e.plans.hits, e.plans.misses
		e.plans.mu.Unlock()
	}
	rs := e.indexes.Stats()
	cs.SidecarLoads, cs.SidecarMisses, cs.SidecarWrites = rs.SidecarLoads, rs.SidecarMisses, rs.SidecarWrites
	return cs
}

// Explain compiles a query and returns its plans without executing it.
func (e *Engine) Explain(query string) (original, optimized, physical string, err error) {
	compiled, err := e.compile(query)
	if err != nil {
		return "", "", "", err
	}
	return compiled.OriginalPlan, compiled.OptimizedPlan, compiled.Job.String(), nil
}

func (e *Engine) compile(query string) (*core.Compiled, error) {
	return core.CompileQuery(query, core.Options{
		Rules:      e.opts.ruleConfig(),
		Partitions: e.opts.Partitions,
	})
}
