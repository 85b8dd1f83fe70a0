package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

// The oracle is an independent, deliberately naive evaluator: encoding/json
// and plain Go loops over the generated files, sharing no code with the
// engine. It computes the expected answer of every workload's query.

type measurement struct {
	Date     string  `json:"date"`
	DataType string  `json:"dataType"`
	Station  string  `json:"station"`
	Value    float64 `json:"value"`
}

type document struct {
	Root []struct {
		Results []measurement `json:"results"`
	} `json:"root"`
}

// loadMeasurements decodes every top-level document of every file, in file
// order, into the flat list collection("/sensors")("root")()("results")()
// iterates over.
func loadMeasurements(files []string) ([]measurement, error) {
	var out []measurement
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(f)
		for {
			var d document
			if err := dec.Decode(&d); err == io.EOF {
				break
			} else if err != nil {
				f.Close()
				return nil, fmt.Errorf("oracle: %s: %w", name, err)
			}
			for _, r := range d.Root {
				out = append(out, r.Results...)
			}
		}
		f.Close()
	}
	return out, nil
}

// answer is an expected result: either a multiset of canonical JSON texts
// (sorted), or one number compared with a relative tolerance.
type answer struct {
	lines  []string
	number *float64
}

// canonical re-renders a JSON text through encoding/json (sorted object keys,
// one number format), so the engine's rendering and the oracle's compare as
// values rather than as text.
func canonical(text string) (string, error) {
	var v any
	if err := json.Unmarshal([]byte(text), &v); err != nil {
		return "", fmt.Errorf("result item %q is not JSON: %w", text, err)
	}
	b, err := json.Marshal(v)
	return string(b), err
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // strings, float64s and maps of them always marshal
	}
	return string(b)
}

// expected computes the workload's answer from the measurements.
func expected(kind answerKind, ms []measurement, lo, hi string) (answer, error) {
	var lines []string
	switch kind {
	case answerQ0, answerQ0b:
		for _, m := range ms {
			t, err := time.Parse("2006-01-02T15:04", m.Date)
			if err != nil {
				return answer{}, fmt.Errorf("oracle: %w", err)
			}
			if t.Year() < 2003 || t.Month() != time.December || t.Day() != 25 {
				continue
			}
			if kind == answerQ0b {
				lines = append(lines, mustJSON(m.Date))
			} else {
				lines = append(lines, mustJSON(map[string]any{
					"date": m.Date, "dataType": m.DataType, "station": m.Station, "value": m.Value}))
			}
		}
	case answerQ1:
		counts := map[string]int{}
		for _, m := range ms {
			if m.DataType == "TMIN" {
				counts[m.Date]++
			}
		}
		for _, n := range counts {
			lines = append(lines, mustJSON(float64(n)))
		}
	case answerQ2:
		type key struct{ station, date string }
		mins := map[key][]float64{}
		for _, m := range ms {
			if m.DataType == "TMIN" {
				k := key{m.Station, m.Date}
				mins[k] = append(mins[k], m.Value)
			}
		}
		var sum float64
		var n int
		for _, m := range ms {
			if m.DataType != "TMAX" {
				continue
			}
			for _, v := range mins[key{m.Station, m.Date}] {
				sum += m.Value - v
				n++
			}
		}
		if n == 0 {
			return answer{}, fmt.Errorf("oracle: Q2 joins nothing; bad dataset")
		}
		avg := sum / float64(n) / 10
		return answer{number: &avg}, nil
	case answerDateRange:
		for _, m := range ms {
			if m.Date >= lo && m.Date < hi {
				lines = append(lines, mustJSON(m.Date))
			}
		}
	}
	if len(lines) == 0 {
		return answer{}, fmt.Errorf("oracle: empty expected answer; bad dataset")
	}
	sort.Strings(lines)
	return answer{lines: lines}, nil
}

// check compares the engine's result items (JSON texts) with the answer.
func (a answer) check(texts []string) error {
	if a.number != nil {
		if len(texts) != 1 {
			return fmt.Errorf("got %d items, want 1 number", len(texts))
		}
		got, err := strconv.ParseFloat(texts[0], 64)
		if err != nil {
			return fmt.Errorf("result %q is not a number", texts[0])
		}
		want := *a.number
		if math.Abs(got-want) > 1e-9*math.Max(math.Abs(got), math.Abs(want)) {
			return fmt.Errorf("got %v, want %v", got, want)
		}
		return nil
	}
	if len(texts) != len(a.lines) {
		return fmt.Errorf("got %d items, want %d", len(texts), len(a.lines))
	}
	got := make([]string, len(texts))
	for i, t := range texts {
		c, err := canonical(t)
		if err != nil {
			return err
		}
		got[i] = c
	}
	sort.Strings(got)
	for i := range got {
		if got[i] != a.lines[i] {
			return fmt.Errorf("item %d of the sorted result: got %s, want %s", i, got[i], a.lines[i])
		}
	}
	return nil
}
