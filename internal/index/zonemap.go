// Package index implements the paper's future-work direction (§6: "We are
// currently working on supporting indexing ... indexing will further
// improve the system's performance since the searched data volume will be
// significantly reduced").
//
// The index is a zone map: for a collection and a projection path it
// records, per fixed byte range (zone) of each file, the minimum and
// maximum scalar value the records starting in that zone contain at the
// path. A file's value range is the fold of its zones. When a query's
// selection bounds the indexed path, the DATASCAN skips files none of whose
// zones can overlap the predicate, and whole morsels of the files it keeps
// — the searched data volume shrinks without touching query semantics (the
// SELECT operator still verifies every surviving tuple).
//
// Zone maps are built with one streaming pass over the collection. Every
// lookup is checked against the file's current (size, mtime) identity, so
// a file that changed since the build simply stops pruning. With
// persistence configured (see Persistence), what a build computes is also
// written to per-file sidecars, so the index survives process restarts.
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

// FileStats is the zone-map entry of one zone of a file.
type FileStats struct {
	// Min and Max bound the values found at the indexed path (nil when the
	// zone has none).
	Min, Max item.Item
	// Count is the number of values found.
	Count int64
}

// observe folds one encoded scalar into the stats, decoding it only when it
// becomes the new minimum or maximum.
func (st *FileStats) observe(enc []byte) error {
	lo, hi := st.Count == 0, st.Count == 0
	if !lo {
		c, err := item.CompareEncoded(enc, st.Min)
		if err != nil {
			return err
		}
		lo = c < 0
	}
	if !hi {
		c, err := item.CompareEncoded(enc, st.Max)
		if err != nil {
			return err
		}
		hi = c > 0
	}
	if lo || hi {
		it, _, err := item.Decode(enc)
		if err != nil {
			return err
		}
		if lo {
			st.Min = it
		}
		if hi {
			st.Max = it
		}
	}
	st.Count++
	return nil
}

// PathZones is the dense per-zone stats of one file at one path: zone i
// summarizes the records whose line start lies in [i*Grain, (i+1)*Grain),
// and the zones together cover [0, Size). An empty file has one empty zone.
type PathZones struct {
	Grain int64
	Size  int64
	Stats []FileStats
}

// runtimeZones converts to the runtime.Zone form consumed by morsel pruning.
func (pz PathZones) runtimeZones() []runtime.Zone {
	out := make([]runtime.Zone, len(pz.Stats))
	for i, st := range pz.Stats {
		start := int64(i) * pz.Grain
		out[i] = runtime.Zone{
			Start: start,
			End:   min(start+pz.Grain, pz.Size),
			Range: runtime.FileRange{Min: st.Min, Max: st.Max, Count: st.Count},
		}
	}
	return out
}

// ZoneMap is the per-zone min/max index of one (collection, path).
type ZoneMap struct {
	Collection string
	Path       jsonparse.Path
	// Zones holds, per file, the dense per-zone stats the build computed.
	Zones map[string]PathZones

	// idents holds the identity each file had before the build read it
	// (files without a durable identity are absent), so a file that changes
	// during or after the build never matches its stats.
	idents map[string]runtime.FileIdent
}

// BuildWith builds one zone map per path over a single scan of the
// collection, with zones zoneGrain bytes wide. Files are read with the same
// record model DATASCAN uses — a concatenated stream of top-level values
// (NDJSON, newline-separated records, or one whole document) — so the map
// covers exactly the records a scan of the file would emit. Every file is
// read once and its record items feed the zones of every path. With a
// single path the stats pass is the streaming projected scan over encoded
// values (nothing off the path is materialized, and a value is decoded only
// when it becomes a zone's new minimum or maximum); with several, each
// record is parsed once and every path is applied to it. Non-scalar items
// (objects, arrays) are rejected: zone maps index scalar paths.
func BuildWith(src runtime.Source, collection string, paths []jsonparse.Path, zoneGrain int64) ([]*ZoneMap, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("index: no paths to build")
	}
	if zoneGrain <= 0 {
		return nil, fmt.Errorf("index: zone grain %d, want > 0", zoneGrain)
	}
	files, err := src.Files(collection)
	if err != nil {
		return nil, err
	}
	idents := make(map[string]runtime.FileIdent, len(files))
	zms := make([]*ZoneMap, len(paths))
	for i, p := range paths {
		zms[i] = &ZoneMap{
			Collection: collection,
			Path:       append(jsonparse.Path(nil), p...),
			Zones:      make(map[string]PathZones, len(files)),
			idents:     idents,
		}
	}
	for _, f := range files {
		zones := make([][]FileStats, len(paths))
		observe := func(pathIdx int, lineStart int64, enc []byte) error {
			switch k := item.EncodedKind(enc); k {
			case item.KindObject, item.KindArray:
				return fmt.Errorf("path %s yields a %s; zone maps index scalar paths",
					paths[pathIdx], k)
			}
			zi := int(lineStart / zoneGrain)
			for len(zones[pathIdx]) <= zi {
				zones[pathIdx] = append(zones[pathIdx], FileStats{})
			}
			return zones[pathIdx][zi].observe(enc)
		}

		if id, ok := src.Ident(f); ok {
			idents[f] = id
		}
		rc, err := src.Open(f)
		if err != nil {
			return nil, fmt.Errorf("index: %s: %w", f, err)
		}
		cr := &runtime.CountingReader{R: rc}
		lx := jsonparse.NewStreamLexerAt(cr, jsonparse.DefaultChunkSize, 0)
		if len(paths) == 1 {
			_, err = jsonparse.ScanEncoded(lx, paths[0], -1, func(ls int64, enc []byte) error {
				return observe(0, ls, enc[1:]) // enc is a one-item sequence
			})
		} else {
			var scratch []byte
			_, err = jsonparse.ScanRecords(lx, nil, -1, func(ls int64, record item.Item) error {
				for i, p := range paths {
					for _, it := range jsonparse.ApplyPath(record, p) {
						scratch = item.Encode(scratch[:0], it)
						if err := observe(i, ls, scratch); err != nil {
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
			// Pad to full coverage: records the path yields nothing for
			// still fall inside a (possibly empty) zone, so morsel pruning
			// never faces an uncovered byte range, and an empty file gets
			// one empty zone, which no filter admits.
			z := zones[i]
			for len(z) == 0 || int64(len(z))*zoneGrain < size {
				z = append(z, FileStats{})
			}
			zms[i].Zones[f] = PathZones{Grain: zoneGrain, Size: size, Stats: z}
		}
	}
	return zms, nil
}
