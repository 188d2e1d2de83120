package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialCI(t *testing.T) {
	lo, hi := BinomialCI(0.5, 100, 1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("CI [%f,%f] must bracket 0.5", lo, hi)
	}
	if hi-lo > 0.3 {
		t.Fatalf("CI too wide: %f", hi-lo)
	}
	lo, hi = BinomialCI(0, 10, 1.96)
	if lo != 0 {
		t.Fatalf("lo clamped: %f", lo)
	}
	lo, hi = BinomialCI(1, 10, 1.96)
	if hi != 1 {
		t.Fatalf("hi clamped: %f", hi)
	}
	if lo, hi := BinomialCI(0.5, 0, 1.96); lo != 0 || hi != 1 {
		t.Fatal("n=0 should be vacuous")
	}
}

func TestMarginShrinksWithN(t *testing.T) {
	prop := func(seed uint8) bool {
		p := float64(seed%99+1) / 100
		return MarginOfError(p, 10000, 1.96) < MarginOfError(p, 100, 1.96)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationP(t *testing.T) {
	rng := New(1)
	// strong consistent effect: tiny p
	big := []float64{-1, -1.1, -0.9, -1, -1.05, -0.95, -1, -1, -1, -1}
	p := PairedPermutationP(big, 2000, rng)
	if p > 0.05 {
		t.Fatalf("consistent effect p=%f", p)
	}
	// symmetric noise: large p
	noise := []float64{1, -1, 0.5, -0.5, 0.2, -0.2, 0.8, -0.8}
	p = PairedPermutationP(noise, 2000, New(2))
	if p < 0.2 {
		t.Fatalf("noise p=%f too small", p)
	}
	if PairedPermutationP(nil, 100, rng) != 1 {
		t.Fatal("empty diffs should be p=1")
	}
}

func TestSimilarity(t *testing.T) {
	if s := Similarity([][]int{{1, 2, 3}, {1, 2, 3}}); s != 1 {
		t.Fatalf("identical sets: %f", s)
	}
	if s := Similarity([][]int{{1, 2}, {3, 4}}); s != 0 {
		t.Fatalf("disjoint sets: %f", s)
	}
	if s := Similarity([][]int{{1, 2, 3}, {2, 3, 4}}); math.Abs(s-0.5) > 1e-9 {
		t.Fatalf("half overlap: %f", s)
	}
	if Similarity(nil) != 0 {
		t.Fatal("no sets")
	}
	// duplicates within a set must not inflate intersection
	if s := Similarity([][]int{{1, 1, 2}, {1, 3}}); math.Abs(s-1.0/3) > 1e-9 {
		t.Fatalf("dup handling: %f", s)
	}
}

func TestSampleSplit(t *testing.T) {
	rng := New(7)
	train, val := SampleSplit(11, 4, rng)
	if len(train) != 4 || len(val) != 7 {
		t.Fatalf("sizes %d/%d", len(train), len(val))
	}
	seen := map[int]bool{}
	for _, x := range append(append([]int{}, train...), val...) {
		if seen[x] || x < 0 || x >= 11 {
			t.Fatalf("bad partition element %d", x)
		}
		seen[x] = true
	}
	if len(seen) != 11 {
		t.Fatal("not a partition")
	}
}
