package hyracks

import (
	"fmt"
	"strings"
	"testing"

	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// bigSensorFile builds one well-formed sensor file of at least minBytes.
func bigSensorFile(minBytes int) []byte {
	var sb strings.Builder
	sb.WriteString(`{"root":[`)
	for i := 0; sb.Len() < minBytes; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb,
			`{"metadata":{"count":1},"results":[{"date":"2013-12-25T00:00","dataType":"TMIN","station":"S%06d","value":%d}]}`,
			i, i%40)
	}
	sb.WriteString(`]}`)
	return []byte(sb.String())
}

// TestScanPeakMemoryBoundedByChunk is the acceptance criterion of the
// streaming-ingest refactor: scanning one file at least 4x the chunk buffer
// must peak at O(chunk + frames), not O(file). Before the refactor the scan
// charged the whole file to the accountant and this fails.
func TestScanPeakMemoryBoundedByChunk(t *testing.T) {
	chunk := jsonparse.DefaultChunkSize // 64 KiB
	data := bigSensorFile(4 * chunk)
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{
		"/sensors": {"big.json": data},
	}}
	res, err := RunStaged(scanJob(1, measurementsPath()), &Env{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BytesRead != int64(len(data)) {
		t.Errorf("BytesRead = %d, want %d", res.Stats.BytesRead, len(data))
	}
	if res.PeakMemory < int64(chunk) {
		t.Errorf("PeakMemory = %d, want >= chunk buffer %d", res.PeakMemory, chunk)
	}
	if lim := int64(len(data)) / 2; res.PeakMemory >= lim {
		t.Errorf("PeakMemory = %d for a %d byte file; streaming scan must stay under %d",
			res.PeakMemory, len(data), lim)
	}
}

// TestScanErrorNamesFileAndOffset: a failed scan must say which file broke
// and where, for both executors.
func TestScanErrorNamesFileAndOffset(t *testing.T) {
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{
		"/sensors": {"truncated.json": []byte(`{"root": [ {"date": "2013-`)},
	}}
	for name, run := range map[string]func(*Job, *Env) (*Result, error){
		"staged":    RunStaged,
		"pipelined": RunPipelined,
	} {
		_, err := run(scanJob(1, measurementsPath()), &Env{Source: src})
		if err == nil {
			t.Fatalf("%s: scan of a truncated file must fail", name)
		}
		if !strings.Contains(err.Error(), "truncated.json") {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
		if !strings.Contains(err.Error(), "offset") {
			t.Errorf("%s: error %q does not carry a position", name, err)
		}
	}
}
