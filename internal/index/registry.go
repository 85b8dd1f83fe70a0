package index

import (
	"os"
	"sync"

	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// Persistence configures sidecar-backed persistence of a Registry: what a
// zone-map build computes for a file is written to that file's sidecar, and
// lookups missing in memory consult the sidecar before giving up.
type Persistence struct {
	// Ident resolves a file's durable (size, mtime) identity. Files it
	// reports ok=false for (e.g. in-memory documents) are never persisted
	// and never read from sidecars.
	Ident func(file string) (runtime.FileIdent, bool)
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

// Registry holds the zone maps of an engine, keyed by collection and path.
// It implements runtime.IndexLookup and runtime.ZoneLookup. Safe for
// concurrent use.
//
// With persistence configured, per-file state is written through to sidecar
// files and lookups revalidate against each file's current (size, mtime)
// identity: a stale or corrupt sidecar is dropped, the lookup misses (no
// pruning), and the next build rewrites the sidecar.
type Registry struct {
	mu    sync.RWMutex
	maps  map[string]*ZoneMap
	files map[string]map[string]*fileEntry // collection -> file -> entry
	pers  *Persistence
	stats RegistryStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		maps:  map[string]*ZoneMap{},
		files: map[string]map[string]*fileEntry{},
	}
}

func key(collection string, path jsonparse.Path) string {
	return collection + "\x00" + path.String()
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

// resolve returns the entry of one file, revalidating against the file's
// current identity and loading the sidecar on first touch. A stale entry
// (identity changed since it was observed) is dropped; a failed sidecar
// load leaves a probed negative entry so the disk is not re-read every
// query. Returns nil when nothing is known about the file. Callers must
// read the returned entry's fields under r.mu.
func (r *Registry) resolve(collection, file string) *fileEntry {
	r.mu.RLock()
	e := r.files[collection][file]
	pers := r.pers
	fresh := e != nil && e.probed && e.hasIdent
	var seen runtime.FileIdent
	if e != nil {
		seen = e.ident
	}
	r.mu.RUnlock()

	if pers == nil || pers.Ident == nil {
		return e
	}
	ident, ok := pers.Ident(file)
	if !ok {
		// No durable identity: serve whatever is in memory, never touch disk.
		return e
	}
	if fresh && seen == ident {
		return e
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	e = r.entryLocked(collection, file)
	if e.hasIdent && e.ident == ident && e.probed {
		return e
	}
	if e.hasIdent && e.ident != ident {
		// The file changed: everything recorded about it is stale.
		*e = fileEntry{}
	}
	e.ident, e.hasIdent = ident, true
	if !e.probed {
		e.probed = true
		sc, err := LoadSidecar(SidecarPathFor(file, pers.Dir), ident)
		if err != nil {
			r.stats.SidecarMisses++
		} else {
			r.stats.SidecarLoads++
			for _, p := range sc.Paths {
				if e.zones == nil {
					e.zones = map[string]PathZones{}
				}
				if _, have := e.zones[p.Path]; !have {
					e.zones[p.Path] = PathZones{Grain: p.ZoneGrain, Size: ident.Size, Stats: p.Zones}
				}
			}
		}
	}
	return e
}

// persistLocked writes one file's entry through to its sidecar. Caller holds
// r.mu for writing. Failures are silent by design: persistence is an
// optimization, never a correctness dependency.
func (r *Registry) persistLocked(file string, e *fileEntry) {
	if r.pers == nil || r.pers.Ident == nil || !e.hasIdent {
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
// into the per-file entries (and through to sidecars, with persistence
// configured).
func (r *Registry) Add(zm *ZoneMap) {
	// Resolve identities outside the lock: Ident stats the filesystem.
	idents := map[string]runtime.FileIdent{}
	r.mu.RLock()
	pers := r.pers
	r.mu.RUnlock()
	if pers != nil && pers.Ident != nil {
		for f := range zm.Files {
			if id, ok := pers.Ident(f); ok {
				idents[f] = id
			}
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.maps[key(zm.Collection, zm.Path)] = zm
	pathText := zm.Path.String()
	for f := range zm.Files {
		e := r.entryLocked(zm.Collection, f)
		if id, ok := idents[f]; ok {
			if e.hasIdent && e.ident != id {
				*e = fileEntry{}
			}
			e.ident, e.hasIdent, e.probed = id, true, true
		}
		if pz, ok := zm.Zones[f]; ok {
			if e.zones == nil {
				e.zones = map[string]PathZones{}
			}
			e.zones[pathText] = pz
		}
		if _, ok := idents[f]; ok {
			r.persistLocked(f, e)
		}
	}
}

// FileRange implements runtime.IndexLookup: it reports the indexed value
// range of one file, if a matching zone map exists — or, warm from a
// sidecar, by aggregating the file's per-zone stats.
func (r *Registry) FileRange(collection string, path jsonparse.Path, file string) (runtime.FileRange, bool) {
	r.mu.RLock()
	zm, ok := r.maps[key(collection, path)]
	r.mu.RUnlock()
	if ok {
		if st, ok := zm.Files[file]; ok {
			return runtime.FileRange{Min: st.Min, Max: st.Max, Count: st.Count}, true
		}
	}
	// Cross-process warm path: a sidecar carries zones, whose aggregate is
	// exactly the file-level range.
	e := r.resolve(collection, file)
	if e == nil {
		return runtime.FileRange{}, false
	}
	r.mu.RLock()
	pz, ok := e.zones[path.String()]
	r.mu.RUnlock()
	if !ok {
		return runtime.FileRange{}, false
	}
	var agg FileStats
	for _, z := range pz.Stats {
		if z.Count == 0 {
			continue
		}
		if agg.Count == 0 {
			agg.Min, agg.Max = z.Min, z.Max
		} else {
			if item.Compare(z.Min, agg.Min) < 0 {
				agg.Min = z.Min
			}
			if item.Compare(z.Max, agg.Max) > 0 {
				agg.Max = z.Max
			}
		}
		agg.Count += z.Count
	}
	return runtime.FileRange{Min: agg.Min, Max: agg.Max, Count: agg.Count}, true
}

// FileZones implements runtime.ZoneLookup: it reports the per-zone min/max
// stats of one file at an indexed path, from a build in this process or a
// validated sidecar.
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

// Len reports the number of registered zone maps.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.maps)
}
