// Package gen generates synthetic NOAA GHCN-Daily-like JSON sensor data
// with the exact structure of the paper's dataset (§5.1, Listing 6): each
// file holds one "root" array whose members are records containing a
// "metadata" object (with a "count") and a "results" array of measurement
// objects {date, dataType, station, value}.
//
// The generator is deterministic (seeded PRNG) and parameterized by file
// size, measurements per "results" array, and the date/dataType/station
// distributions, so the paper's workloads (Dec-25 selections, TMIN
// aggregation, TMIN/TMAX self-join) hit configurable selectivities.
package gen

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
)

// DataTypes are the measurement types generated, mirroring the paper's
// examples (TMIN, TMAX, WIND, ...). TMIN and TMAX always both exist for a
// (station, date) pair so the Q2 self-join finds matches.
var DataTypes = []string{"TMIN", "TMAX", "WIND", "PRCP", "SNOW"}

// Config parameterizes dataset generation.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// Files is the number of JSON files in the collection.
	Files int
	// RecordsPerFile is the number of members of each file's root array.
	RecordsPerFile int
	// MeasurementsPerArray is the number of measurement objects in each
	// "results" array (the x-axis of Fig. 18 / Table 1).
	MeasurementsPerArray int
	// Stations is the number of distinct station ids.
	Stations int
	// YearMin/YearMax bound the measurement dates.
	YearMin, YearMax int
	// PartitionByYear assigns each file a single year (file i covers
	// YearMin + i mod the year range). Year-partitioned collections let a
	// zone-map index on the date path skip whole files for year-bounded
	// selections.
	PartitionByYear bool
	// SplitRecords emits each root-array member as its own
	// newline-terminated {"root":[...]} document instead of one whole-file
	// root object. The resulting file is a concatenation of top-level JSON
	// values with raw newlines between records — the shape morsel-driven
	// scans can split into byte ranges on record boundaries. Workload
	// results are identical because every query unnests the root array.
	SplitRecords bool
	// ClusterDates orders each file's records by date: record r's base
	// month/day advance monotonically with r instead of drawing from the
	// PRNG (and the Dec-25 pinning is off). Byte position within a file
	// then correlates with the date path, so per-zone min/max stats of a
	// date index are selective and a narrow date predicate prunes most of
	// a file's morsels — the shape the morsel-skip benchmarks need.
	ClusterDates bool
}

// Default returns a small but representative configuration.
func Default() Config {
	return Config{
		Seed:                 1,
		Files:                8,
		RecordsPerFile:       16,
		MeasurementsPerArray: 30,
		Stations:             50,
		YearMin:              2000,
		YearMax:              2014,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Files <= 0:
		return fmt.Errorf("gen: Files must be positive, got %d", c.Files)
	case c.RecordsPerFile <= 0:
		return fmt.Errorf("gen: RecordsPerFile must be positive, got %d", c.RecordsPerFile)
	case c.MeasurementsPerArray <= 0:
		return fmt.Errorf("gen: MeasurementsPerArray must be positive, got %d", c.MeasurementsPerArray)
	case c.Stations <= 0:
		return fmt.Errorf("gen: Stations must be positive, got %d", c.Stations)
	case c.YearMin > c.YearMax:
		return fmt.Errorf("gen: YearMin %d > YearMax %d", c.YearMin, c.YearMax)
	}
	return nil
}

// Measurements reports the total number of measurement objects a
// configuration generates.
func (c Config) Measurements() int {
	return c.Files * c.RecordsPerFile * c.MeasurementsPerArray
}

// File generates the JSON bytes of the idx-th file of the collection.
func (c Config) File(idx int) []byte {
	rng := rand.New(rand.NewSource(c.Seed + int64(idx)*7919))
	var b []byte
	if c.SplitRecords {
		for r := 0; r < c.RecordsPerFile; r++ {
			b = append(b, `{"root":[`...)
			b = c.appendRecord(b, rng, idx, r)
			b = append(b, "]}\n"...)
		}
		return b
	}
	b = append(b, `{"root":[`...)
	for r := 0; r < c.RecordsPerFile; r++ {
		if r > 0 {
			b = append(b, ',')
		}
		b = c.appendRecord(b, rng, idx, r)
	}
	b = append(b, `]}`...)
	return b
}

// appendRecord writes one {"metadata":...,"results":[...]} record. Each
// record covers a run of consecutive days for one station; TMIN/TMAX pairs
// are emitted for the same (station, date) so the self-join matches.
func (c Config) appendRecord(b []byte, rng *rand.Rand, fileIdx, recIdx int) []byte {
	station := fmt.Sprintf("GSW%06d", rng.Intn(c.Stations))
	year := c.YearMin + rng.Intn(c.YearMax-c.YearMin+1)
	if c.PartitionByYear {
		year = c.YearMin + fileIdx%(c.YearMax-c.YearMin+1)
	}
	month := 1 + rng.Intn(12)
	day := 1 + rng.Intn(28)
	// Roughly 1/12 of records get December dates and some land on the
	// 25th, giving the Q0 selection its selectivity; additionally every
	// 8th record is pinned to Dec 25 so small datasets are never empty.
	if rng.Intn(8) == 0 {
		month, day = 12, 25
	}
	if c.ClusterDates {
		// Sweep the 12*28-day grid monotonically across the file's records.
		dayIdx := recIdx * (12 * 28) / c.RecordsPerFile
		month, day = 1+dayIdx/28, 1+dayIdx%28
	}
	b = append(b, `{"metadata":{"count":`...)
	b = strconv.AppendInt(b, int64(c.MeasurementsPerArray), 10)
	b = append(b, `},"results":[`...)
	for m := 0; m < c.MeasurementsPerArray; m++ {
		if m > 0 {
			b = append(b, ',')
		}
		// Measurements alternate TMIN/TMAX on the same date, then advance
		// the day; remaining slots draw random types.
		typ := DataTypes[m%len(DataTypes)]
		value := rng.Intn(400) - 100
		if typ == "TMAX" {
			value = rng.Intn(300) + 50
		}
		d := day + m/len(DataTypes)
		mo := month
		for d > 28 {
			d -= 28
			mo++
			if mo > 12 {
				mo = 1
			}
		}
		b = append(b, `{"date":"`...)
		b = appendDate(b, year, mo, d)
		b = append(b, `","dataType":"`...)
		b = append(b, typ...)
		b = append(b, `","station":"`...)
		b = append(b, station...)
		b = append(b, `","value":`...)
		b = strconv.AppendInt(b, int64(value), 10)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

func appendDate(b []byte, y, m, d int) []byte {
	b = append(b, fmt.Sprintf("%04d-%02d-%02dT00:00", y, m, d)...)
	return b
}

// WriteDir generates the collection into a directory, one file per
// Config.Files, and returns the total bytes written.
func (c Config) WriteDir(dir string) (int64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var total int64
	for i := 0; i < c.Files; i++ {
		data := c.File(i)
		name := filepath.Join(dir, fmt.Sprintf("sensor_%05d.json", i))
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return total, err
		}
		total += int64(len(data))
	}
	return total, nil
}

// InMemory generates the collection as an in-memory document map, keyed by
// file name, for tests and the experiment harness.
func (c Config) InMemory() (map[string][]byte, int64, error) {
	if err := c.Validate(); err != nil {
		return nil, 0, err
	}
	docs := make(map[string][]byte, c.Files)
	var total int64
	for i := 0; i < c.Files; i++ {
		data := c.File(i)
		docs[fmt.Sprintf("sensor_%05d.json", i)] = data
		total += int64(len(data))
	}
	return docs, total, nil
}

// ScaleToBytes adjusts Files so the generated collection is approximately
// targetBytes, by measuring one file.
func (c Config) ScaleToBytes(targetBytes int64) Config {
	sample := int64(len(c.File(0)))
	if sample == 0 {
		return c
	}
	files := int(targetBytes / sample)
	if files < 1 {
		files = 1
	}
	out := c
	out.Files = files
	return out
}
