package hyracks_test

import (
	"bytes"
	"testing"

	"vxq/internal/bench"
	"vxq/internal/core"
	"vxq/internal/gen"
	"vxq/internal/hyracks"
	"vxq/internal/item"
	"vxq/internal/runtime"
)

// TestQueriesLazyVsEagerByteIdentical runs every paper query (Q0, Q0b, Q1,
// Q1b, Q2) through the full compiler at 1 and 3 partitions, once as compiled
// and once with every GROUP-BY swapped for the decoded-sequence reference
// (WithReferenceGroupBy), and requires byte-identical results under the
// canonical encoding.
func TestQueriesLazyVsEagerByteIdentical(t *testing.T) {
	cfg := gen.Default()
	cfg.Files = 12
	cfg.RecordsPerFile = 24
	docs, _, err := cfg.InMemory()
	if err != nil {
		t.Fatal(err)
	}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	for _, q := range bench.Queries {
		for _, parts := range []int{1, 3} {
			c, err := core.CompileQuery(q.Text, core.Options{Rules: core.AllRules(), Partitions: parts})
			if err != nil {
				t.Fatalf("%s: CompileQuery: %v", q.Name, err)
			}
			ref, err := hyracks.RunStaged(hyracks.WithReferenceGroupBy(c.Job), &hyracks.Env{Source: src})
			if err != nil {
				t.Fatalf("%s (parts=%d): reference: %v", q.Name, parts, err)
			}
			lazy, err := hyracks.RunStaged(c.Job, &hyracks.Env{Source: src})
			if err != nil {
				t.Fatalf("%s (parts=%d): %v", q.Name, parts, err)
			}
			ref.SortRows()
			lazy.SortRows()
			if len(ref.Rows) != len(lazy.Rows) {
				t.Fatalf("%s (parts=%d): reference %d rows, lazy %d rows", q.Name, parts, len(ref.Rows), len(lazy.Rows))
			}
			if len(ref.Rows) == 0 {
				t.Fatalf("%s (parts=%d): no rows — workload too small to differentiate", q.Name, parts)
			}
			for i := range ref.Rows {
				if len(ref.Rows[i]) != len(lazy.Rows[i]) {
					t.Fatalf("%s (parts=%d): row %d arity mismatch", q.Name, parts, i)
				}
				for j := range ref.Rows[i] {
					rb := item.EncodeSeq(nil, ref.Rows[i][j])
					lb := item.EncodeSeq(nil, lazy.Rows[i][j])
					if !bytes.Equal(rb, lb) {
						t.Fatalf("%s (parts=%d): row %d field %d not byte-identical: reference %s, lazy %s",
							q.Name, parts, i, j, item.JSONSeq(ref.Rows[i][j]), item.JSONSeq(lazy.Rows[i][j]))
					}
				}
			}
		}
	}
}
