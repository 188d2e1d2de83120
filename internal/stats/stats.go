// Package stats provides the small statistical toolkit the evaluation
// harness needs: deterministic sampling, binomial confidence intervals for
// injection campaigns, permutation-test p-values for the train/validate
// study, and the subset-similarity metric of the paper's Eq. 2.
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// New returns a deterministic RNG for a named experiment.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// BinomialCI returns the normal-approximation confidence interval for an
// observed proportion p over n samples at the given z (1.96 ≈ 95%).
func BinomialCI(p float64, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	half := z * math.Sqrt(p*(1-p)/float64(n))
	lo = p - half
	hi = p + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// MarginOfError returns the half-width of the binomial CI at proportion p
// over n samples (the paper reports <0.1% at 95% for its campaigns).
func MarginOfError(p float64, n int, z float64) float64 {
	if n == 0 {
		return 1
	}
	return z * math.Sqrt(p*(1-p)/float64(n))
}

// PairedPermutationP returns the two-sided p-value of the hypothesis that
// paired differences are centered at zero, via a sign-flip permutation test.
func PairedPermutationP(diffs []float64, iters int, rng *rand.Rand) float64 {
	if len(diffs) == 0 {
		return 1
	}
	obs := math.Abs(mean(diffs))
	count := 0
	flipped := make([]float64, len(diffs))
	for it := 0; it < iters; it++ {
		for i, d := range diffs {
			if rng.Intn(2) == 0 {
				flipped[i] = -d
			} else {
				flipped[i] = d
			}
		}
		if math.Abs(mean(flipped)) >= obs-1e-15 {
			count++
		}
	}
	return float64(count+1) / float64(iters+1)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Mean exposes the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}

// Similarity implements Eq. 2: |intersection| / |union| over sets of
// flip-flop indices.
func Similarity(sets [][]int) float64 {
	if len(sets) == 0 {
		return 0
	}
	counts := map[int]int{}
	for _, s := range sets {
		seen := map[int]bool{}
		for _, x := range s {
			if !seen[x] {
				seen[x] = true
				counts[x]++
			}
		}
	}
	union := len(counts)
	inter := 0
	for _, c := range counts {
		if c == len(sets) {
			inter++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// SampleSplit partitions indices 0..n-1 into a training set of size k and
// the complementary validation set, deterministically for the given RNG.
func SampleSplit(n, k int, rng *rand.Rand) (train, validate []int) {
	perm := rng.Perm(n)
	train = append(train, perm[:k]...)
	validate = append(validate, perm[k:]...)
	sort.Ints(train)
	sort.Ints(validate)
	return train, validate
}
