// Command benchmark is the one end-to-end benchmark of the vxq engine: six
// workloads over generated raw-JSON collections, four end-to-end metrics and
// a per-layer breakdown whose parts sum to the wall clock. See README.md.
//
//	go run . -seed 1                        every workload, full report
//	go run . -workload q1_groupby -trace 0  one workload, result line last
//	go run . -compare a.json b.json         judge two -out files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"
)

// envInfo is the header a full run prints and -out records.
type envInfo struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds_per_workload"`
	TotalWallS float64 `json:"total_wall_s"`
}

// outFile is the -out schema, and what -compare reads.
type outFile struct {
	Env  envInfo     `json:"env"`
	Runs []runDetail `json:"runs"`
}

// cli holds the command line.
type cli struct {
	workload, scale, out, traceOut, spec string
	seed                                 int64
	seconds                              float64
	trace                                int
	compare                              bool
}

func main() {
	var c cli
	flag.StringVar(&c.workload, "workload", "", "run one workload and print its result line last (default: all, each in a child process)")
	flag.Int64Var(&c.seed, "seed", 1, "dataset generator seed")
	flag.Float64Var(&c.seconds, "seconds", 15, "timed budget per workload, in seconds")
	flag.IntVar(&c.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics from the traced passes, 2 = both")
	flag.StringVar(&c.scale, "scale", "full", "dataset and repeat scale: full or tiny")
	flag.StringVar(&c.out, "out", "", "write the detailed results as JSON (the input of -compare)")
	flag.StringVar(&c.traceOut, "trace-out", "", "write every recorded span as JSON")
	flag.BoolVar(&c.compare, "compare", false, "compare -out files: -compare a.json b.json (each side may be a comma-separated list)")
	flag.StringVar(&c.spec, "spec", "", "BENCHMARK.json with the bounds -compare applies (default: ./ or ../)")
	flag.Parse()
	if err := c.run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func (c cli) run(args []string) error {
	if c.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files (or two comma-separated lists)")
		}
		return compareFiles(c.spec, args[0], args[1], os.Stdout)
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	sc, ok := scales[c.scale]
	if !ok {
		return fmt.Errorf("unknown -scale %q", c.scale)
	}
	if c.trace < 0 || c.trace > 2 {
		return fmt.Errorf("-trace must be 0, 1 or 2")
	}
	if c.workload == "" {
		return runAll(sc, c.seed, c.seconds, c.out, c.traceOut)
	}
	w, ok := findWorkload(c.workload)
	if !ok {
		return fmt.Errorf("unknown -workload %q", c.workload)
	}
	d, err := runWorkload(w, sc, c.seed, c.seconds, c.trace, "", c.traceOut)
	if err != nil {
		return err
	}
	if d.Error != "" {
		fmt.Fprintln(os.Stderr, "benchmark:", w.Name+":", d.Error)
	}
	if c.out != "" {
		if err := writeJSON(c.out, outFile{Env: environment(c.seed, sc, c.seconds), Runs: []runDetail{*d}}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(d.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func environment(seed int64, sc scale, seconds float64) envInfo {
	return envInfo{NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0), GoVersion: goruntime.Version(),
		Commit: commit(), Seed: seed, Scale: sc.Name, Seconds: seconds}
}

// commit asks git for the checkout's HEAD; a checkout without git metadata
// is "unknown".
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload in its own child process of this binary, so
// heap state and peak RSS never leak from one workload into the next, and
// prints the full report.
func runAll(sc scale, seed int64, seconds float64, out, traceOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "vxqbench-all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	start := time.Now()
	res := outFile{Env: environment(seed, sc, seconds)}
	printHeader(res.Env)
	var spans []spanOut
	for _, w := range workloads {
		detail, spanPath := filepath.Join(tmp, w.Name+".json"), filepath.Join(tmp, w.Name+".spans.json")
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", "2", "-scale", sc.Name, "-out", detail, "-trace-out", spanPath)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		var one outFile
		if err := readJSON(detail, &one); err != nil {
			return err
		}
		res.Runs = append(res.Runs, one.Runs...)
		printRun(one.Runs[0])
		var sf spanFile
		if err := readJSON(spanPath, &sf); err != nil {
			return err
		}
		// Span IDs are per child; shift them so they stay unique when merged.
		base := len(spans)
		for _, s := range sf.Spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			spans = append(spans, s)
		}
	}
	res.Env.TotalWallS = time.Since(start).Seconds()
	fmt.Printf("\ntotal wall %.1f s\n", res.Env.TotalWallS)
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := writeJSON(traceOut, spanFile{Spans: spans}); err != nil {
			return err
		}
	}
	for _, r := range res.Runs {
		if !r.Result.Correct {
			return fmt.Errorf("%s: %d of %d iterations failed: %s", r.Workload, r.Result.Failed, r.Result.Attempted, r.Error)
		}
	}
	return nil
}

// percent renders a spread, which may be unknown.
func percent(spread float64) string {
	if spread == spreadUnknown {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*spread)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func printHeader(e envInfo) {
	fmt.Printf("vxq end-to-end benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d scale=%s budget=%gs/workload\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Seed, e.Scale, e.Seconds)
	fmt.Println("load: closed loop, one client; every iteration is a fresh engine -> Mount -> Query -> result digest")
	fmt.Println("files are read through the OS page cache: read rates are this sandbox's, not a device's;")
	fmt.Printf("scaling beyond nproc=%d is unmeasured\n", e.NumCPU)
}

func printRun(d runDetail) {
	r := d.Result
	fmt.Printf("\n== %s  (%s: %d files, %d bytes, %d records; seed %d)\n", d.Workload, d.Dataset, d.Files, d.Bytes, d.Records, d.Seed)
	fmt.Printf("  %-36s %14.6g %-10s (%d failed of %d attempted)\n", "failed_frac",
		float64(r.Failed)/float64(max(r.Attempted, 1)), "fraction", r.Failed, r.Attempted)
	if d.Error != "" {
		fmt.Printf("  first error: %s\n", d.Error)
	}
	for _, m := range endToEnd {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Printf("  %-36s %14.6g %-10s own spread %s, bound %.0f%%\n", m.Name, v.Value, v.Unit, percent(d.Spread[m.Name]), 100*m.Bound)
		}
	}
	for _, m := range perLayer {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Printf("  %-36s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
}
