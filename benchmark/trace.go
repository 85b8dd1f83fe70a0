package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark's own code around a
// call into a layer. Parent is the ID of the enclosing span, -1 at the top.
type span struct {
	ID        int    `json:"id"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	Workload  string `json:"workload"`
	Iteration int    `json:"iteration"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the timed iterations run.
type tracer struct {
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// start opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) start(name string, parent, iteration int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Workload: t.workload,
		Iteration: iteration, StartNS: time.Since(t.epoch).Nanoseconds()})
	return id
}

// end closes a span and returns it.
func (t *tracer) end(id int) span {
	if t == nil {
		return span{}
	}
	t.spans[id].EndNS = time.Since(t.epoch).Nanoseconds()
	return t.spans[id]
}

// selfNS is a span's duration minus the part of it its child spans cover
// (children may overlap each other; the covered part is their union).
func selfNS(spans []span, id int) int64 {
	p := spans[id]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	covered, edge := int64(0), p.StartNS
	for _, k := range kids {
		if k.hi <= edge {
			continue
		}
		covered += k.hi - max(k.lo, edge)
		edge = k.hi
	}
	return p.EndNS - p.StartNS - covered
}

// spanFile is the -trace-out schema: every span with its self time.
type spanFile struct {
	Spans []spanOut `json:"spans"`
}

type spanOut struct {
	span
	SelfNS int64 `json:"self_ns"`
}

func writeSpans(path string, spans []span) error {
	out := spanFile{Spans: make([]spanOut, len(spans))}
	for i, s := range spans {
		out.Spans[i] = spanOut{span: s, SelfNS: selfNS(spans, i)}
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
