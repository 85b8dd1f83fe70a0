package index

import (
	"os"
	"sync"

	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// Persistence configures sidecar-backed persistence of a Registry: what a
// zone-map build computes for a file is written to that file's sidecar, and
// lookups missing in memory consult the sidecar before giving up. Files
// without a durable identity (e.g. in-memory documents) are never persisted
// and never read from sidecars.
type Persistence struct {
	// Dir is the sidecar directory ("" = next to each data file).
	Dir string
}

// RegistryStats counts sidecar traffic, for tests and the cache benchmark.
type RegistryStats struct {
	// SidecarLoads counts sidecars successfully loaded and validated.
	SidecarLoads int64
	// SidecarMisses counts lookups that found no usable sidecar: none, a
	// corrupt or truncated one, or a (size, mtime) / version mismatch.
	SidecarMisses int64
	// SidecarWrites counts sidecars written (or rewritten).
	SidecarWrites int64
}

// fileEntry is everything the registry knows about one file: its identity
// at observation time and its per-path zone stats. probed marks that a
// sidecar load was already attempted under the current identity, so a
// missing sidecar costs one disk probe per file, not one per query.
type fileEntry struct {
	ident    runtime.FileIdent
	hasIdent bool
	probed   bool
	zones    map[string]PathZones // path postfix text -> zones
}

// Registry holds the zone maps of an engine, per collection, file and path.
// It implements runtime.IndexLookup. Safe for concurrent use.
//
// Every lookup revalidates against the file's current identity, whether or
// not persistence is configured: a stale entry is dropped and the lookup
// misses (no pruning) until the next build. An identity that cannot witness
// change (whole-second mtime and ctime) always misses. Files without a
// durable identity cannot be checked; Drop is their change signal. With
// persistence configured, per-file state is also written through to sidecar
// files, and a lookup that finds nothing current in memory loads the file's
// sidecar.
type Registry struct {
	mu    sync.RWMutex
	ident func(file string) (runtime.FileIdent, bool)
	files map[string]map[string]*fileEntry // collection -> file -> entry
	pers  *Persistence
	stats RegistryStats
}

// NewRegistry returns an empty registry that checks every lookup against
// the identity ident reports for the file.
func NewRegistry(ident func(file string) (runtime.FileIdent, bool)) *Registry {
	return &Registry{ident: ident, files: map[string]map[string]*fileEntry{}}
}

// Drop forgets everything held in memory about a collection's files. A
// re-mount calls it: in-memory documents have no identity to revalidate.
func (r *Registry) Drop(collection string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.files, collection)
}

// SetPersistence enables (or, with nil, disables) sidecar persistence.
func (r *Registry) SetPersistence(p *Persistence) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pers = p
}

// Stats returns a snapshot of the sidecar traffic counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.stats
}

// entryLocked returns the entry of one file, creating it if needed. Caller
// holds r.mu for writing.
func (r *Registry) entryLocked(collection, file string) *fileEntry {
	m := r.files[collection]
	if m == nil {
		m = map[string]*fileEntry{}
		r.files[collection] = m
	}
	e := m[file]
	if e == nil {
		e = &fileEntry{}
		m[file] = e
	}
	return e
}

// resolve returns the entry of one file, revalidated against the file's
// current identity, loading the sidecar on first touch. A stale entry
// (identity changed since it was observed) is emptied; a failed sidecar
// load leaves a probed negative entry so the disk is not re-read every
// query. Returns nil when nothing current is known about the file, and for
// a durable identity that cannot witness change (FileIdent.WitnessesChange).
// Callers must read the returned entry's fields under r.mu.
func (r *Registry) resolve(collection, file string) *fileEntry {
	r.mu.RLock()
	e := r.files[collection][file]
	pers := r.pers
	var seen runtime.FileIdent
	var known, probed bool
	if e != nil {
		seen, known, probed = e.ident, e.hasIdent, e.probed
	}
	r.mu.RUnlock()

	if e == nil && pers == nil {
		return nil // nothing in memory and no sidecar to consult: no stat
	}
	ident, durable := r.ident(file)
	if !durable {
		// Nothing to check against and no sidecar to read: serve what a
		// build of this (in-memory) file left, unless the file had an
		// identity then.
		if known {
			return nil
		}
		return e
	}
	if !ident.WitnessesChange() {
		// Whole-second timestamps: a same-size rewrite within the second
		// would keep this identity, so nothing recorded under it is
		// trusted.
		return nil
	}
	if known && seen == ident && (probed || pers == nil) {
		return e
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	e = r.entryLocked(collection, file)
	if !e.hasIdent || e.ident != ident {
		// The file changed, or was never checked: what was recorded about
		// it is stale.
		*e = fileEntry{ident: ident, hasIdent: true}
	}
	r.loadSidecarLocked(file, e)
	return e
}

// loadSidecarLocked merges the file's sidecar, validated against the
// entry's identity, into the entry, once per identity; paths the entry
// already holds win. Caller holds r.mu for writing.
func (r *Registry) loadSidecarLocked(file string, e *fileEntry) {
	if e.probed || r.pers == nil {
		return
	}
	e.probed = true
	sc, err := LoadSidecar(SidecarPathFor(file, r.pers.Dir), e.ident)
	if err != nil {
		r.stats.SidecarMisses++
		return
	}
	r.stats.SidecarLoads++
	for _, p := range sc.Paths {
		if e.zones == nil {
			e.zones = map[string]PathZones{}
		}
		if _, have := e.zones[p.Path]; !have {
			e.zones[p.Path] = PathZones{Grain: p.ZoneGrain, Size: e.ident.Size, Stats: p.Zones}
		}
	}
}

// persistLocked writes one file's entry through to its sidecar. Caller holds
// r.mu for writing. Failures are silent by design: persistence is an
// optimization, never a correctness dependency.
func (r *Registry) persistLocked(file string, e *fileEntry) {
	if r.pers == nil || !e.hasIdent {
		return
	}
	sc := &Sidecar{Ident: e.ident}
	for p, pz := range e.zones {
		sc.Paths = append(sc.Paths, SidecarPathZones{Path: p, ZoneGrain: pz.Grain, Zones: pz.Stats})
	}
	if r.pers.Dir != "" {
		if err := os.MkdirAll(r.pers.Dir, 0o755); err != nil {
			return
		}
	}
	if WriteSidecar(SidecarPathFor(file, r.pers.Dir), sc) == nil {
		r.stats.SidecarWrites++
	}
}

// Add registers (or replaces) a zone map, merging its per-file zone stats
// into the per-file entries under the identity each file had when the build
// read it (and through to sidecars, with persistence configured). A file's
// sidecar is loaded before the merge, so the rewritten sidecar keeps the
// paths other processes built: a sidecar only ever gains paths.
func (r *Registry) Add(zm *ZoneMap) {
	r.mu.Lock()
	defer r.mu.Unlock()
	pathText := zm.Path.String()
	for f, pz := range zm.Zones {
		e := r.entryLocked(zm.Collection, f)
		id, durable := zm.idents[f]
		if e.hasIdent != durable || e.ident != id {
			*e = fileEntry{ident: id, hasIdent: durable}
		}
		if durable {
			r.loadSidecarLocked(f, e)
		}
		e.probed = true
		if e.zones == nil {
			e.zones = map[string]PathZones{}
		}
		e.zones[pathText] = pz
		if durable {
			r.persistLocked(f, e)
		}
	}
}

// FileZones implements runtime.IndexLookup: it reports the per-zone min/max
// stats of one file at an indexed path, from a build in this process or a
// validated sidecar, provided the file has not changed since.
func (r *Registry) FileZones(collection string, path jsonparse.Path, file string) ([]runtime.Zone, bool) {
	e := r.resolve(collection, file)
	if e == nil {
		return nil, false
	}
	r.mu.RLock()
	pz, ok := e.zones[path.String()]
	r.mu.RUnlock()
	if !ok || pz.Grain <= 0 || len(pz.Stats) == 0 {
		return nil, false
	}
	return pz.runtimeZones(), true
}
