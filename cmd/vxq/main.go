// Command vxq runs JSONiq queries over directories of raw JSON files.
//
// Usage:
//
//	vxq -mount /sensors=/data/sensors [flags] 'for $r in collection("/sensors")... return $r'
//	vxq -mount /sensors=/data/sensors -f query.jq
//
// Flags select the partition count, toggle the paper's rule categories, and
// switch to explain-only mode (print the plans instead of executing).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vxq"
)

type mountFlags map[string]string

func (m mountFlags) String() string {
	var parts []string
	for k, v := range m {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (m mountFlags) Set(s string) error {
	name, dir, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("mount must be name=dir, got %q", s)
	}
	m[name] = dir
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vxq:", err)
		os.Exit(1)
	}
}

func run() error {
	mounts := mountFlags{}
	fs := flag.NewFlagSet("vxq", flag.ExitOnError)
	fs.Var(mounts, "mount", "collection mount as name=dir (repeatable)")
	queryFile := fs.String("f", "", "read the query from a file instead of the command line")
	partitions := fs.Int("partitions", 1, "partitioned-parallel degree for collection scans")
	noPath := fs.Bool("no-path-rules", false, "disable the path expression rules (§4.1)")
	noPipe := fs.Bool("no-pipelining-rules", false, "disable the pipelining rules (§4.2)")
	noGroup := fs.Bool("no-groupby-rules", false, "disable the group-by rules (§4.3)")
	explain := fs.Bool("explain", false, "print the plans instead of executing")
	stats := fs.Bool("stats", false, "print execution statistics to stderr")
	profile := fs.Bool("profile", false, "print the per-operator execution profile to stderr (runs the staged executor so operator self-times account for the job wall)")
	trace := fs.String("trace", "", "write the machine-readable JSON profile trace to this file (implies profiling)")
	morselKB := fs.Int64("morsel-kb", 0, "scan morsel size in KiB (0 = default 4 MiB); large files split into byte-range morsels")
	cacheDir := fs.String("cache-dir", "", "directory for persistent structural-index sidecars (default: next to each data file)")
	noSidecars := fs.Bool("no-sidecars", false, "disable persistent index sidecars (in-memory indexes only)")
	repeat := fs.Int("repeat", 1, "run the query this many times (warm runs exercise the plan cache and sidecars)")
	opMemKB := fs.Int64("op-mem-kb", 0, "per-operator memory budget in KiB before group-by/join/sort spill to disk (0 = never spill)")
	spillDir := fs.String("spill-dir", "", "directory for operator spill files (default: the OS temp dir)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}

	var query string
	switch {
	case *queryFile != "":
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		query = string(b)
	case fs.NArg() == 1:
		query = fs.Arg(0)
	default:
		fs.Usage()
		return fmt.Errorf("expected exactly one query (or -f file)")
	}

	eng := vxq.New(vxq.Options{
		Partitions:             *partitions,
		DisablePathRules:       *noPath,
		DisablePipeliningRules: *noPipe,
		DisableGroupByRules:    *noGroup,
		MorselSize:             *morselKB << 10,
		CacheDir:               *cacheDir,
		DisableSidecars:        *noSidecars,
		OpMemoryBudget:         *opMemKB << 10,
		SpillDir:               *spillDir,
		Profile:                *profile || *trace != "",
		// -profile renders per-operator self times that should sum to the
		// job wall; only the staged executor gives that accounting (the
		// pipelined executor's times include channel blocking).
		Staged: *profile,
	})
	for name, dir := range mounts {
		eng.Mount(name, dir)
	}

	if *explain {
		orig, opt, phys, err := eng.Explain(query)
		if err != nil {
			return err
		}
		fmt.Println("-- original logical plan --")
		fmt.Print(orig)
		fmt.Println("-- optimized logical plan --")
		fmt.Print(opt)
		fmt.Println("-- physical plan --")
		fmt.Print(phys)
		return nil
	}

	var res *vxq.Result
	for i := 0; i < *repeat; i++ {
		r, err := eng.Query(query)
		if err != nil {
			return err
		}
		res = r
	}
	if res == nil {
		return fmt.Errorf("-repeat must be >= 1")
	}
	for _, it := range res.Items {
		fmt.Println(vxq.JSON(it))
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "items: %d  files: %d  bytes read: %d  tuples: %d  shuffled: %d  peak memory: %d\n",
			len(res.Items), res.Stats.FilesRead, res.Stats.BytesRead,
			res.Stats.TuplesProduced, res.Stats.BytesShuffled, res.PeakMemory)
		if res.Stats.SpilledBytes > 0 {
			fmt.Fprintf(os.Stderr, "spill: bytes: %d  partitions: %d  waves: %d\n",
				res.Stats.SpilledBytes, res.Stats.SpillPartitions, res.Stats.SpillWaves)
		}
		cs := eng.CacheStats()
		fmt.Fprintf(os.Stderr, "cache: plan hit=%v  files skipped: %d  morsels skipped: %d  sidecars loaded/written: %d/%d\n",
			res.Cache.PlanHit,
			res.Stats.FilesSkipped, res.Stats.MorselsSkipped,
			cs.SidecarLoads, cs.SidecarWrites)
	}
	if *profile && res.Profile != nil {
		fmt.Fprint(os.Stderr, res.Profile.String())
	}
	if *trace != "" && res.Profile != nil {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		if err := res.Profile.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
