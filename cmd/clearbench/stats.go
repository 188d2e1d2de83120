package main

import (
	"math"
	"sort"
)

// summary is a timing or value distribution as the report prints it: the
// sample count, the quartiles, and the highest percentile that still has at
// least ten samples beyond it (Tail is NaN and TailP 0 when there are fewer
// than twenty samples).
type summary struct {
	N             int
	P25, P50, P75 float64
	TailP         float64 // percentile of Tail, e.g. 99 for p99
	Tail          float64
}

// summarize sorts a copy of xs and computes its summary. An empty input
// yields N 0 and NaN statistics.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{
		N:   len(s),
		P25: quantile(s, 0.25),
		P50: quantile(s, 0.50),
		P75: quantile(s, 0.75),
	}
	out.TailP, out.Tail = tailPercentile(s)
	return out
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile returns the q-quantile of sorted, interpolated with the
// "exclusive" method (position q*(n+1)), which is what Python's
// statistics.quantiles uses by default; the spread checks applied to this
// benchmark's output are computed that way. Positions outside [1, n] clamp
// to the extremes.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n+1)
	if pos <= 1 {
		return sorted[0]
	}
	if pos >= float64(n) {
		return sorted[n-1]
	}
	i := int(pos) // 1-based index of the lower neighbour
	frac := pos - float64(i)
	return sorted[i-1] + frac*(sorted[i]-sorted[i-1])
}

// tailLadder lists the percentiles tailPercentile considers, highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of tailLadder with at least
// ten samples strictly above its position, and its value. With fewer than
// twenty samples no percentile qualifies and it returns (0, NaN).
func tailPercentile(sorted []float64) (float64, float64) {
	n := len(sorted)
	for _, p := range tailLadder {
		// Samples strictly beyond the percentile: the 1-based ranks above
		// its position p*(n+1).
		beyond := n - int(math.Floor(p/100*float64(n+1)))
		if beyond >= 10 {
			return p, quantile(sorted, p/100)
		}
	}
	return 0, math.NaN()
}
