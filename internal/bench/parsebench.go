package bench

import (
	"bytes"
	"fmt"

	"vxq/internal/jsonparse"
)

// The parse-kernel benchmarks measure the on-demand scan kernel (structural
// raw-skip, zero-alloc token views, lazy numbers) against a plain tokenizer
// pass over the same bytes, on two shapes:
//
//   - project1: project one small field out of ~1 KiB records, so nearly
//     every byte is skipped — the DATASCAN-with-projection hot path;
//   - skiprecord: a path that matches nothing, so the whole record is
//     skipped — the pure skip throughput ceiling.

// parseBenchRecord renders one synthetic sensor-ish record of roughly 1 KiB:
// a handful of small leading fields, a long readings array, a padded note
// string with escapes, and a nested metadata object. The projected field
// ("dataType") sits among the leading fields; everything else is skip fodder.
func parseBenchRecord(i int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"id":"rec-%08d","dataType":"TMIN","station":"GSW%06d","value":%d.%d`,
		i, 100000+i%900000, -40+i%80, i%10)
	b.WriteString(`,"readings":[`)
	for j := 0; j < 60; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d.%02d", (i+j)%100, j)
	}
	b.WriteString(`],"meta":{"source":"noaa\/ghcnd","quality":"Q","flags":[null,true,false],"revision":3}`)
	fmt.Fprintf(&b, `,"note":"record %d \"quoted\" padding %s"}`, i,
		bytes.Repeat([]byte("abcdefgh"), 57))
	return b.Bytes()
}

// ParseBenchStream builds the newline-delimited workload: records ~1 KiB
// each, totalling roughly totalBytes.
func ParseBenchStream(totalBytes int) (data []byte, records int) {
	var b bytes.Buffer
	for i := 0; b.Len() < totalBytes; i++ {
		b.Write(parseBenchRecord(i))
		b.WriteByte('\n')
		records++
	}
	return b.Bytes(), records
}

// ParseBenchPath returns the projection path of a parse-kernel shape.
func ParseBenchPath(shape string) (jsonparse.Path, error) {
	switch shape {
	case "project1":
		return jsonparse.Path{jsonparse.KeyStep("dataType")}, nil
	case "skiprecord":
		return jsonparse.Path{jsonparse.KeyStep("nosuchfield")}, nil
	default:
		return nil, fmt.Errorf("unknown parse bench shape %q", shape)
	}
}

// ScanParseBench runs one pass of the shape's projected scan over data the
// way the query's DATASCAN runs it (each projected value encoded straight
// from the token stream), returning the number of emitted values.
func ScanParseBench(data []byte, path jsonparse.Path) (int, error) {
	l := jsonparse.NewLexer(data)
	emitted := 0
	_, err := jsonparse.ScanEncoded(l, path, -1, func(int64, []byte) error {
		emitted++
		return nil
	})
	return emitted, err
}
