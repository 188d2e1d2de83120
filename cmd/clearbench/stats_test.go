package main

import (
	"math"
	"testing"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	// statistics.quantiles([1, 5, 9], n=4) == [1.0, 5.0, 9.0]
	for q, want := range map[float64]float64{0.25: 1, 0.5: 5, 0.75: 9} {
		if got := quantile([]float64{1, 5, 9}, q); got != want {
			t.Errorf("quantile3(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample quantile = %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty quantile is not NaN")
	}
}

func TestMedianUnsorted(t *testing.T) {
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Fatalf("median = %v, want 4", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n     int
		wantP float64
	}{
		{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		p, v := tailPercentile(seq(c.n))
		if p != c.wantP {
			t.Errorf("n=%d: tail percentile p%v, want p%v", c.n, p, c.wantP)
			continue
		}
		if p == 0 {
			if !math.IsNaN(v) {
				t.Errorf("n=%d: value %v, want NaN", c.n, v)
			}
			continue
		}
		// Count the samples strictly above the reported value.
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d p%v: only %d samples beyond %v", c.n, p, beyond, v)
		}
	}
}

func TestSummarizeCountsAndOrder(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.P50 != 2.5 || s.P25 > s.P50 || s.P75 < s.P50 {
		t.Fatalf("summary %+v", s)
	}
	if s.TailP != 0 {
		t.Fatalf("tail reported for 4 samples: %+v", s)
	}
}
