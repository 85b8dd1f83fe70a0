// Indexing: the paper's §6 future-work direction, implemented as zone
// maps. Build a min/max index over the date path of a year-partitioned
// collection and watch a year-bounded selection skip almost every file.
package main

import (
	"fmt"
	"log"
	"time"

	"vxq"
	"vxq/internal/gen"
)

func main() {
	cfg := gen.Default()
	cfg.Files = 30 // two files per year, 2000-2014
	cfg.RecordsPerFile = 16
	cfg.PartitionByYear = true
	docs, total, err := cfg.InMemory()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d year-partitioned files, %.1f KB\n\n", cfg.Files, float64(total)/1024)

	query := `
		for $d in collection("/sensors")("root")()("results")()("date")
		where $d ge "2007-01-01" and $d lt "2008-01-01"
		return $d`

	run := func(name string, eng *vxq.Engine) {
		start := time.Now()
		res, err := eng.Query(query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %5d dates in %8v   files read: %2d  skipped: %2d  bytes: %d\n",
			name, len(res.Items), time.Since(start).Round(time.Microsecond),
			res.Stats.FilesRead, res.Stats.FilesSkipped, res.Stats.BytesRead)
	}

	plain := vxq.New(vxq.Options{Partitions: 2})
	plain.MountDocs("/sensors", docs)
	run("full scan", plain)

	indexed := vxq.New(vxq.Options{Partitions: 2})
	indexed.MountDocs("/sensors", docs)
	if err := indexed.BuildIndex("/sensors", `("root")()("results")()("date")`); err != nil {
		log.Fatal(err)
	}
	run("zone-map index", indexed)

	_, opt, _, err := indexed.Explain(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimized plan (note the filter on the DATASCAN):\n%s", opt)
}
