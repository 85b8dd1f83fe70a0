package vxq

import (
	"container/list"
	"strings"
	"sync"

	"vxq/internal/core"
)

// The engine's warm path has two layers:
//
//  1. Sidecar-backed zone indexes (internal/index): the per-zone stats a
//     BuildIndex pass computes, persisted next to the data and checked
//     against each file's current identity on every lookup, so even a
//     fresh process prunes warm.
//  2. A compiled-plan cache: normalized query text + option fingerprint →
//     compiled job, bounded LRU, so a repeated query skips parse, rewrite
//     and physical planning. A plan holds no file state: every execution
//     lists, checks and scans the collection afresh.
//
// Layer 2 lives in this file; layer 1 is wired up in New.

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
