package vxq

import (
	"container/list"
	"strings"
	"sync"

	"vxq/internal/core"
	"vxq/internal/frame"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// The engine's warm path is a three-layer cache stack:
//
//  1. Sidecar-backed zone indexes (internal/index): the per-zone stats a
//     BuildIndex pass computes, persisted next to the data and validated
//     by (size, mtime), so even a fresh process prunes warm.
//  2. A compiled-plan cache: normalized query text + option fingerprint →
//     compiled job, bounded LRU, so a repeated query skips parse, rewrite
//     and physical planning.
//  3. A result cache: the same key → the full result sequence, bounded by
//     an accountant-charged byte budget and invalidated when any scanned
//     file's (size, mtime) identity — or the engine's mount set — changes.
//
// Layers 2 and 3 live in this file; layer 1 is wired up in New.

// normalizeQuery canonicalizes query text for cache keying: runs of
// whitespace outside string literals collapse to a single space and leading/
// trailing whitespace is dropped. String literals (single- or double-quoted,
// with backslash escapes — the jsoniq lexer's rules) are preserved verbatim,
// so normalization never changes what a query means; two queries normalizing
// to the same key tokenize identically.
func normalizeQuery(q string) string {
	var b strings.Builder
	b.Grow(len(q))
	pendingSpace := false
	i := 0
	for i < len(q) {
		c := q[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			pendingSpace = b.Len() > 0
			i++
		case c == '"' || c == '\'':
			if pendingSpace {
				b.WriteByte(' ')
				pendingSpace = false
			}
			j := i + 1
			for j < len(q) && q[j] != c {
				if q[j] == '\\' && j+1 < len(q) {
					j++
				}
				j++
			}
			if j < len(q) {
				j++ // include the closing quote
			}
			b.WriteString(q[i:j])
			i = j
		default:
			if pendingSpace {
				b.WriteByte(' ')
				pendingSpace = false
			}
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

// DefaultPlanCacheSize is the compiled-plan cache capacity when
// Options.PlanCacheSize is 0.
const DefaultPlanCacheSize = 64

// planCache is a bounded LRU of compiled plans. Compiled jobs are shared by
// concurrent executions of the same query — operator specs are read-only at
// run time (the pipelined executor already shares them across partitions) —
// so a hit hands out the cached pointer directly.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	hits    int64
	misses  int64
}

type planEntry struct {
	key string
	c   *core.Compiled
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		entries: make(map[string]*list.Element, capacity),
		order:   list.New(),
	}
}

func (pc *planCache) get(key string) (*core.Compiled, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if !ok {
		pc.misses++
		return nil, false
	}
	pc.order.MoveToFront(el)
	pc.hits++
	return el.Value.(*planEntry).c, true
}

func (pc *planCache) put(key string, c *core.Compiled) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		el.Value.(*planEntry).c = c
		pc.order.MoveToFront(el)
		return
	}
	pc.entries[key] = pc.order.PushFront(&planEntry{key: key, c: c})
	for pc.order.Len() > pc.cap {
		oldest := pc.order.Back()
		pc.order.Remove(oldest)
		delete(pc.entries, oldest.Value.(*planEntry).key)
	}
}

// fileSnap is one scanned file's identity at snapshot time. durable=false
// files (in-memory documents) cannot be revalidated against the filesystem;
// the engine's mount generation covers them instead.
type fileSnap struct {
	path    string
	ident   runtime.FileIdent
	durable bool
}

// collSnap is the file set of one scanned collection at snapshot time. A
// hit revalidates the whole set: a file added to or removed from the
// directory changes the list and invalidates the entry even when every
// surviving file is untouched.
type collSnap struct {
	name  string
	files []fileSnap
}

// resultEntry is one cached query result plus everything needed to decide
// it is still valid.
type resultEntry struct {
	key   string
	res   *Result // Profile is never cached; Items are shared, copied out per hit
	cost  int64
	gen   uint64 // engine mount generation at snapshot time
	colls []collSnap
}

// resultCache is a bounded LRU of fully-computed query results. Entry sizes
// are charged to a dedicated accountant; storing evicts least-recently-used
// entries until the new entry fits (an entry larger than the whole budget is
// simply not cached).
type resultCache struct {
	mu      sync.Mutex
	limit   int64
	acct    *frame.Accountant
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	hits    int64
	misses  int64
}

func newResultCache(limit int64) *resultCache {
	return &resultCache{
		limit:   limit,
		acct:    frame.NewAccountant(limit),
		entries: map[string]*list.Element{},
		order:   list.New(),
	}
}

// resultCost estimates the bytes an entry pins: the items themselves plus
// the plan strings and snapshot bookkeeping.
func resultCost(res *Result, colls []collSnap) int64 {
	cost := int64(len(res.OriginalPlan) + len(res.OptimizedPlan) + len(res.PhysicalPlan))
	for _, it := range res.Items {
		cost += item.SizeBytes(it)
	}
	for _, c := range colls {
		cost += int64(len(c.name))
		for _, f := range c.files {
			cost += int64(len(f.path)) + 16
		}
	}
	return cost
}

// lookup returns a copy of the cached result for key when the entry is
// still valid per validate. An invalid entry is evicted on the spot.
func (rc *resultCache) lookup(key string, validate func(*resultEntry) bool) (*Result, bool) {
	rc.mu.Lock()
	el, ok := rc.entries[key]
	var e *resultEntry
	if ok {
		e = el.Value.(*resultEntry)
	}
	rc.mu.Unlock()
	if !ok {
		rc.mu.Lock()
		rc.misses++
		rc.mu.Unlock()
		return nil, false
	}
	// Validation stats the filesystem: do it outside the lock.
	valid := validate(e)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el2, still := rc.entries[key]; !still || el2.Value.(*resultEntry) != e {
		// Concurrently replaced or evicted; treat as a miss.
		rc.misses++
		return nil, false
	}
	if !valid {
		rc.removeLocked(el)
		rc.misses++
		return nil, false
	}
	rc.order.MoveToFront(el)
	rc.hits++
	out := *e.res
	out.Items = append([]Item(nil), e.res.Items...)
	out.Cache.ResultHit = true
	return &out, true
}

// store inserts (or replaces) an entry, evicting from the LRU tail until
// the accountant accepts the charge.
func (rc *resultCache) store(e *resultEntry) {
	e.cost = resultCost(e.res, e.colls)
	if e.cost > rc.limit {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.entries[e.key]; ok {
		rc.removeLocked(el)
	}
	for rc.acct.Current()+e.cost > rc.limit && rc.order.Len() > 0 {
		rc.removeLocked(rc.order.Back())
	}
	if !rc.acct.Allocate(e.cost) {
		rc.acct.Release(e.cost)
		return
	}
	rc.entries[e.key] = rc.order.PushFront(e)
}

func (rc *resultCache) removeLocked(el *list.Element) {
	e := el.Value.(*resultEntry)
	rc.order.Remove(el)
	delete(rc.entries, e.key)
	rc.acct.Release(e.cost)
}

// bytesUsed reports the accountant's current charge.
func (rc *resultCache) bytesUsed() int64 { return rc.acct.Current() }

// resultCacheable reports whether a query's result may be cached. Every
// built-in function is deterministic, so the only disqualifier is json-doc:
// it reads files at evaluation time, outside the scanned collections the
// snapshot covers.
func resultCacheable(normalized string) bool {
	return !strings.Contains(normalized, "json-doc")
}
