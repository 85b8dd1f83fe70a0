package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of the values (0 for none).
func median(v []float64) float64 {
	s := sorted(v)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), so the
// spreads printed here are the ones the acceptance check computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadUnknown marks a spread that too few samples cannot give.
const spreadUnknown = -1

// iqrFrac is the interquartile distance as a share of the median.
func iqrFrac(v []float64) float64 {
	m := median(v)
	if len(v) < 4 || m == 0 {
		return spreadUnknown
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / m
}

// medianSpread estimates, from one run's samples, how far their median may
// be off, as a share of it: the interquartile distance (max − min below four
// samples) over the median, divided by √n. It sees the noise inside a run,
// not the sandbox's slower drift between runs.
func medianSpread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return spreadUnknown
	}
	s := sorted(v)
	width := s[len(s)-1] - s[0]
	if len(v) >= 4 {
		q1, q3 := quartiles(v)
		width = q3 - q1
	}
	return width / m / math.Sqrt(float64(len(v)))
}
