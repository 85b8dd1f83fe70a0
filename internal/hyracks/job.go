package hyracks

import (
	"fmt"
	"strings"

	"vxq/internal/item"
	"vxq/internal/jsonparse"
	"vxq/internal/runtime"
)

// SourceSpec describes where a fragment's input tuples come from.
type SourceSpec interface{ sourceName() string }

// ETSSource emits a single empty tuple per partition (the
// EMPTY-TUPLE-SOURCE leaf operator of §3.2).
type ETSSource struct{}

func (ETSSource) sourceName() string { return "EMPTY-TUPLE-SOURCE" }

// ScanFilter is a range predicate on a scalar path, attached to a DATASCAN
// by the index rule: files none of whose zones can overlap [Lo, Hi] are
// skipped entirely, and so are morsels of the other files whose zones
// cannot. Nil bounds are unbounded; strict bounds exclude the endpoint. The
// filter only ever *prunes* — the plan's SELECT still checks every
// surviving tuple, so execution is correct with or without an index.
type ScanFilter struct {
	Path               jsonparse.Path
	Lo, Hi             item.Item
	LoStrict, HiStrict bool
}

// Admits reports whether a zone with the given value range may contain a
// value satisfying the filter.
func (f *ScanFilter) Admits(r runtime.FileRange) bool {
	if r.Count == 0 || r.Min == nil || r.Max == nil {
		return false
	}
	if f.Lo != nil {
		c := item.Compare(r.Max, f.Lo)
		if c < 0 || (c == 0 && f.LoStrict) {
			return false
		}
	}
	if f.Hi != nil {
		c := item.Compare(r.Min, f.Hi)
		if c > 0 || (c == 0 && f.HiStrict) {
			return false
		}
	}
	return true
}

// String renders the filter for plan printing.
func (f *ScanFilter) String() string {
	lo, hi := "-inf", "+inf"
	if f.Lo != nil {
		lo = item.JSON(f.Lo)
	}
	if f.Hi != nil {
		hi = item.JSON(f.Hi)
	}
	lb, rb := "[", "]"
	if f.LoStrict {
		lb = "("
	}
	if f.HiStrict {
		rb = ")"
	}
	return fmt.Sprintf("%s in %s%s, %s%s", f.Path, lb, lo, hi, rb)
}

// ScanSource is the DATASCAN operator (§3.2, §4.2): it reads the files of a
// collection — each partition takes its share of the files — and emits one
// single-field tuple per projected item. With a nil Project path the whole
// document is one item per file; with a path, the streaming projector emits each matching sub-item as its own tuple, which
// is the pipelining rules' "second argument" to DATASCAN.
type ScanSource struct {
	Collection string
	Project    jsonparse.Path
	// Filter enables zone-map file pruning (may be nil).
	Filter *ScanFilter
}

func (s ScanSource) sourceName() string {
	filter := ""
	if s.Filter != nil {
		filter = " filter{" + s.Filter.String() + "}"
	}
	if len(s.Project) == 0 {
		return fmt.Sprintf("DATASCAN collection(%q)%s", s.Collection, filter)
	}
	return fmt.Sprintf("DATASCAN collection(%q) %s%s", s.Collection, s.Project, filter)
}

// ExchangeSource consumes the frames routed to this partition by the given
// exchange.
type ExchangeSource struct{ Exchange int }

func (s ExchangeSource) sourceName() string { return fmt.Sprintf("RECEIVE exch#%d", s.Exchange) }

// JoinSource consumes two exchanges: Build is drained into a hash table
// first, then Probe streams against it (hybrid hash join, one partition of
// the key space per fragment partition).
type JoinSource struct {
	Build, Probe int
	Spec         *JoinSpec
}

func (s JoinSource) sourceName() string {
	return fmt.Sprintf("HASH-JOIN build=exch#%d probe=exch#%d %s", s.Build, s.Probe, s.Spec.Desc)
}

// ExchangeKind selects the routing policy of an exchange connector.
type ExchangeKind uint8

// Exchange kinds.
const (
	// ExchangeHash routes each tuple to hash(keys) mod consumer partitions
	// (Hyracks' M:N hash-partitioning connector).
	ExchangeHash ExchangeKind = iota
	// ExchangeMerge routes every tuple to consumer partition 0 (M:1).
	ExchangeMerge
	// ExchangeOneToOne routes partition i to partition i.
	ExchangeOneToOne
)

func (k ExchangeKind) String() string {
	switch k {
	case ExchangeHash:
		return "HASH"
	case ExchangeMerge:
		return "MERGE"
	case ExchangeOneToOne:
		return "1:1"
	default:
		return fmt.Sprintf("exchange(%d)", uint8(k))
	}
}

// Exchange describes a connector between a producer fragment and a consumer
// fragment.
type Exchange struct {
	ID                 int
	Kind               ExchangeKind
	Keys               []runtime.Evaluator // for ExchangeHash
	ConsumerPartitions int
}

// Fragment is a linear chain of operators over a source, ending either in
// an exchange or in the job's result collector.
type Fragment struct {
	ID         int
	Source     SourceSpec
	Ops        []OpSpec
	Partitions int
	// SinkExchange is the exchange this fragment feeds, or -1 for the
	// result collector.
	SinkExchange int
}

// Job is a compiled physical plan: fragments in topological order
// (producers before their consumers) plus the exchanges connecting them.
type Job struct {
	Fragments []*Fragment
	Exchanges []*Exchange
}

// Validate checks the job's structural invariants.
func (j *Job) Validate() error {
	exch := make(map[int]*Exchange, len(j.Exchanges))
	for _, e := range j.Exchanges {
		if _, dup := exch[e.ID]; dup {
			return fmt.Errorf("hyracks: duplicate exchange id %d", e.ID)
		}
		if e.ConsumerPartitions <= 0 {
			return fmt.Errorf("hyracks: exchange %d has %d consumer partitions", e.ID, e.ConsumerPartitions)
		}
		exch[e.ID] = e
	}
	produced := make(map[int]bool)
	collectors := 0
	for _, f := range j.Fragments {
		if f.Partitions <= 0 {
			return fmt.Errorf("hyracks: fragment %d has %d partitions", f.ID, f.Partitions)
		}
		switch s := f.Source.(type) {
		case ExchangeSource:
			if !produced[s.Exchange] {
				return fmt.Errorf("hyracks: fragment %d consumes exchange %d before it is produced", f.ID, s.Exchange)
			}
			if exch[s.Exchange].ConsumerPartitions != f.Partitions {
				return fmt.Errorf("hyracks: fragment %d partitions (%d) != exchange %d consumers (%d)",
					f.ID, f.Partitions, s.Exchange, exch[s.Exchange].ConsumerPartitions)
			}
		case JoinSource:
			for _, id := range []int{s.Build, s.Probe} {
				if !produced[id] {
					return fmt.Errorf("hyracks: fragment %d consumes exchange %d before it is produced", f.ID, id)
				}
				if exch[id].ConsumerPartitions != f.Partitions {
					return fmt.Errorf("hyracks: fragment %d partitions (%d) != exchange %d consumers (%d)",
						f.ID, f.Partitions, id, exch[id].ConsumerPartitions)
				}
			}
		case ETSSource, ScanSource:
		default:
			return fmt.Errorf("hyracks: fragment %d has unknown source %T", f.ID, f.Source)
		}
		if f.SinkExchange >= 0 {
			if _, ok := exch[f.SinkExchange]; !ok {
				return fmt.Errorf("hyracks: fragment %d sinks to unknown exchange %d", f.ID, f.SinkExchange)
			}
			produced[f.SinkExchange] = true
		} else {
			collectors++
		}
	}
	if collectors != 1 {
		return fmt.Errorf("hyracks: job must have exactly one collector fragment, has %d", collectors)
	}
	return nil
}

// String renders the job for explain output.
func (j *Job) String() string {
	var b strings.Builder
	for _, f := range j.Fragments {
		fmt.Fprintf(&b, "fragment %d (x%d partitions)", f.ID, f.Partitions)
		if f.SinkExchange >= 0 {
			e := j.exchange(f.SinkExchange)
			fmt.Fprintf(&b, " -> exch#%d[%s]", f.SinkExchange, e.Kind)
		} else {
			b.WriteString(" -> RESULT")
		}
		b.WriteString("\n")
		for i := len(f.Ops) - 1; i >= 0; i-- {
			fmt.Fprintf(&b, "  %s\n", f.Ops[i].Name())
		}
		fmt.Fprintf(&b, "  %s\n", f.Source.sourceName())
	}
	return b.String()
}

func (j *Job) exchange(id int) *Exchange {
	for _, e := range j.Exchanges {
		if e.ID == id {
			return e
		}
	}
	return nil
}
