package bench

import (
	"fmt"

	"vxq/internal/frame"
	"vxq/internal/gen"
	"vxq/internal/hyracks"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// ScanScale parameterizes the morsel-scan skew workloads: one oversized file
// next to many small ones (skewed), versus the same total bytes spread
// evenly (uniform). The full scale reproduces the issue's acceptance
// workload — 1x64 MiB + 31x2 MiB — and the quick scale shrinks it 32x so the
// bench smoke finishes in seconds.
type ScanScale struct {
	// BigBytes is the size of the single oversized file.
	BigBytes int64
	// SmallBytes is the size of each of the remaining Files-1 files.
	SmallBytes int64
	// Files is the total file count.
	Files int
	// MorselSize is the scan split granularity for this scale.
	MorselSize int64
}

// QuickScanScale is the default laptop-friendly workload (1x2 MiB + 31x64
// KiB, 256 KiB morsels).
func QuickScanScale() ScanScale {
	return ScanScale{BigBytes: 2 << 20, SmallBytes: 64 << 10, Files: 32, MorselSize: 256 << 10}
}

// FullScanScale is the acceptance workload (1x64 MiB + 31x2 MiB, default
// morsels).
func FullScanScale() ScanScale {
	return ScanScale{BigBytes: 64 << 20, SmallBytes: 2 << 20, Files: 32, MorselSize: hyracks.DefaultMorselSize}
}

// TotalBytes is the workload's total input size (identical for the skewed
// and uniform variants).
func (s ScanScale) TotalBytes() int64 {
	return s.BigBytes + int64(s.Files-1)*s.SmallBytes
}

// sensorFileOfBytes generates one newline-delimited (SplitRecords) sensor
// file of roughly n bytes, so morsel-driven scans can split it on record
// boundaries.
func sensorFileOfBytes(n int64, idx int) []byte {
	probe := gen.Config{
		Seed: int64(idx) + 1, Files: 1, RecordsPerFile: 1,
		MeasurementsPerArray: 30, Stations: 50, YearMin: 2000, YearMax: 2014,
		SplitRecords: true,
	}
	per := int64(len(probe.File(0)))
	cfg := probe
	cfg.RecordsPerFile = int(n / per)
	if cfg.RecordsPerFile < 1 {
		cfg.RecordsPerFile = 1
	}
	return cfg.File(idx)
}

// SkewedScanSource builds the skewed collection: file 0 holds BigBytes,
// the rest SmallBytes each.
func SkewedScanSource(s ScanScale) (runtime.Source, int64) {
	docs := make(map[string][]byte, s.Files)
	var total int64
	for i := 0; i < s.Files; i++ {
		n := s.SmallBytes
		if i == 0 {
			n = s.BigBytes
		}
		d := sensorFileOfBytes(n, i)
		docs[fmt.Sprintf("sensor_%05d.json", i)] = d
		total += int64(len(d))
	}
	return &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}, total
}

// UniformScanSource builds the uniform collection: the same total bytes as
// the skewed one, spread evenly over Files files.
func UniformScanSource(s ScanScale) (runtime.Source, int64) {
	per := s.TotalBytes() / int64(s.Files)
	docs := make(map[string][]byte, s.Files)
	var total int64
	for i := 0; i < s.Files; i++ {
		d := sensorFileOfBytes(per, i)
		docs[fmt.Sprintf("sensor_%05d.json", i)] = d
		total += int64(len(d))
	}
	return &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}, total
}

// measurementsProjectPath is the DATASCAN projection of the sensor
// workloads.
func measurementsProjectPath() jsonparse.Path {
	p, err := jsonparse.ParsePath(`("root")()("results")()`)
	if err != nil {
		panic(err)
	}
	return p
}

// ScanCountJob builds the scan-dominated job the skew benchmarks run: a
// partitioned scan with a local count aggregate, merged into one global sum —
// so essentially all work is parsing, and almost nothing is shuffled.
func ScanCountJob(partitions int) *hyracks.Job {
	count := &hyracks.AggregateSpec{Aggs: []hyracks.AggDef{
		{Fn: runtime.MustAgg("agg-count"), Arg: runtime.ColumnEval{Col: 0}},
	}}
	sum := &hyracks.AggregateSpec{Aggs: []hyracks.AggDef{
		{Fn: runtime.MustAgg("agg-sum"), Arg: runtime.ColumnEval{Col: 0}},
	}}
	return &hyracks.Job{
		Fragments: []*hyracks.Fragment{
			{ID: 0, Source: hyracks.ScanSource{Collection: "/sensors", Project: measurementsProjectPath()},
				Ops: []hyracks.OpSpec{count}, Partitions: partitions, SinkExchange: 0},
			{ID: 1, Source: hyracks.ExchangeSource{Exchange: 0},
				Ops: []hyracks.OpSpec{sum}, Partitions: 1, SinkExchange: -1},
		},
		Exchanges: []*hyracks.Exchange{
			{ID: 0, Kind: hyracks.ExchangeMerge, ConsumerPartitions: 1},
		},
	}
}

// RunScanCount executes the scan-count job with the pipelined (work-stealing)
// executor.
func RunScanCount(src runtime.Source, partitions int, morselSize int64) (*hyracks.Result, error) {
	env := &hyracks.Env{
		Source:     src,
		Accountant: frame.NewAccountant(0),
		MorselSize: morselSize,
	}
	return hyracks.RunPipelined(ScanCountJob(partitions), env)
}
