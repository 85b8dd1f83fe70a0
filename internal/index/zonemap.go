// Package index implements the paper's future-work direction (§6: "We are
// currently working on supporting indexing ... indexing will further
// improve the system's performance since the searched data volume will be
// significantly reduced").
//
// The index is a per-file zone map: for a collection and a projection path
// it records the minimum and maximum scalar value each file contains at
// that path. When a query's selection bounds the indexed path, the DATASCAN
// skips files whose [min,max] range cannot overlap the predicate — the
// searched data volume shrinks without touching query semantics (the
// SELECT operator still verifies every surviving tuple). A build also
// records per-zone stats — min/max over fixed byte ranges of each file —
// which morsel splitting consults to skip whole byte ranges of files that
// survive the file-level check.
//
// Zone maps are built with one streaming pass over the collection. With
// persistence configured (see Persistence), what a build computes is
// written to per-file sidecars and revalidated against each file's
// (size, mtime) identity on lookup, so the index survives process restarts
// and stale entries simply stop pruning.
package index

import (
	"fmt"

	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// DefaultSplitGrain is the record-start sampling granularity at which the
// benchmark module measures the structural-index boundary kernels
// (jsonparse.BoundaryScanner, jsonparse.ParallelIndexer). No query or build
// uses it: morsels are cut nominally and re-aligned by a newline probe.
const DefaultSplitGrain int64 = 4 << 10

// DefaultZoneGrain is the byte width of per-zone min/max stats: fine enough
// that a default-sized morsel (4 MiB) spans several zones, coarse enough
// that zone metadata stays a rounding error next to the data.
const DefaultZoneGrain int64 = 512 << 10

// FileStats is the zone-map entry of one file (or one zone of a file).
type FileStats struct {
	// Min and Max bound the values found at the indexed path (nil when the
	// file has none).
	Min, Max item.Item
	// Count is the number of values found.
	Count int64
}

func (st *FileStats) observe(it item.Item) {
	if st.Count == 0 {
		st.Min, st.Max = it, it
	} else {
		if item.Compare(it, st.Min) < 0 {
			st.Min = it
		}
		if item.Compare(it, st.Max) > 0 {
			st.Max = it
		}
	}
	st.Count++
}

// PathZones is the dense per-zone stats of one file at one path: zone i
// summarizes the records whose line start lies in [i*Grain, (i+1)*Grain),
// and the zones together cover [0, Size).
type PathZones struct {
	Grain int64
	Size  int64
	Stats []FileStats
}

// runtimeZones converts to the runtime.Zone form consumed by morsel pruning.
func (pz PathZones) runtimeZones() []runtime.Zone {
	if pz.Grain <= 0 || len(pz.Stats) == 0 {
		return nil
	}
	out := make([]runtime.Zone, len(pz.Stats))
	for i, st := range pz.Stats {
		start := int64(i) * pz.Grain
		end := start + pz.Grain
		if end > pz.Size {
			end = pz.Size
		}
		out[i] = runtime.Zone{
			Start: start,
			End:   end,
			Range: runtime.FileRange{Min: st.Min, Max: st.Max, Count: st.Count},
		}
	}
	return out
}

// ZoneMap is a per-file min/max index of one (collection, path).
type ZoneMap struct {
	Collection string
	Path       jsonparse.Path
	Files      map[string]FileStats

	// Zones holds, per file, the dense per-zone stats the build computed —
	// the intra-file refinement of Files that lets morsel splitting skip
	// byte ranges, not just whole files.
	Zones map[string]PathZones
}

// BuildOptions tunes a zone-map build; the zero value is the default build.
type BuildOptions struct {
	// ZoneGrain is the byte width of per-zone min/max stats
	// (DefaultZoneGrain when 0; negative disables zone stats).
	ZoneGrain int64
}

func (o BuildOptions) zoneGrain() int64 {
	if o.ZoneGrain == 0 {
		return DefaultZoneGrain
	}
	if o.ZoneGrain < 0 {
		return 0
	}
	return o.ZoneGrain
}

// Build scans every file of the collection once and records the per-file
// min/max of the items the path yields. Files are read with the same record
// model DATASCAN uses — a concatenated stream of top-level values (NDJSON,
// newline-separated records, or one whole document) — so the map covers
// exactly the records a scan of the file would emit. Non-scalar items
// (objects, arrays) are rejected: zone maps index scalar paths.
func Build(src runtime.Source, collection string, path jsonparse.Path) (*ZoneMap, error) {
	zms, err := BuildWith(src, collection, []jsonparse.Path{path}, BuildOptions{})
	if err != nil {
		return nil, err
	}
	return zms[0], nil
}

// BuildWith builds one zone map per path over a single scan of the
// collection: every file is read once and its record items feed the min/max
// stats of every path, whole-file and per-zone. With a single path the stats
// pass is the streaming projected scan (nothing off the path is
// materialized); with several, each record is parsed once and every path is
// applied to it.
func BuildWith(src runtime.Source, collection string, paths []jsonparse.Path, opts BuildOptions) ([]*ZoneMap, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("index: no paths to build")
	}
	files, err := src.Files(collection)
	if err != nil {
		return nil, err
	}
	zoneGrain := opts.zoneGrain()
	zms := make([]*ZoneMap, len(paths))
	for i, p := range paths {
		zms[i] = &ZoneMap{
			Collection: collection,
			Path:       append(jsonparse.Path(nil), p...),
			Files:      make(map[string]FileStats, len(files)),
			Zones:      make(map[string]PathZones, len(files)),
		}
	}
	for _, f := range files {
		stats := make([]FileStats, len(paths))
		zones := make([][]FileStats, len(paths))
		observe := func(pathIdx int, lineStart int64, it item.Item) error {
			switch it.Kind() {
			case item.KindObject, item.KindArray:
				return fmt.Errorf("path %s yields a %s; zone maps index scalar paths",
					paths[pathIdx], it.Kind())
			}
			stats[pathIdx].observe(it)
			if zoneGrain > 0 {
				zi := int(lineStart / zoneGrain)
				for len(zones[pathIdx]) <= zi {
					zones[pathIdx] = append(zones[pathIdx], FileStats{})
				}
				zones[pathIdx][zi].observe(it)
			}
			return nil
		}

		rc, err := src.Open(f)
		if err != nil {
			return nil, fmt.Errorf("index: %s: %w", f, err)
		}
		cr := &runtime.CountingReader{R: rc}
		lx := jsonparse.NewStreamLexerAt(cr, jsonparse.DefaultChunkSize, 0)
		if len(paths) == 1 {
			_, err = jsonparse.ScanRecords(lx, paths[0], -1, func(ls int64, it item.Item) error {
				return observe(0, ls, it)
			})
		} else {
			_, err = jsonparse.ScanRecords(lx, nil, -1, func(ls int64, record item.Item) error {
				for i, p := range paths {
					for _, it := range jsonparse.ApplyPath(record, p) {
						if err := observe(i, ls, it); err != nil {
							return err
						}
					}
				}
				return nil
			})
		}
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("index: %s: %w", f, err)
		}
		size := cr.N
		for i := range zms {
			zms[i].Files[f] = stats[i]
			if zoneGrain > 0 && size > 0 {
				// Pad to full coverage: records the path yields nothing for
				// still fall inside a (possibly empty) zone, so morsel
				// pruning never faces an uncovered byte range.
				z := zones[i]
				for int64(len(z))*zoneGrain < size {
					z = append(z, FileStats{})
				}
				zms[i].Zones[f] = PathZones{Grain: zoneGrain, Size: size, Stats: z}
			}
		}
	}
	return zms, nil
}
