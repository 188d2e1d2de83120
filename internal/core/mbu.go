package core

import (
	"clear/internal/inject"
	"clear/internal/parity"
)

// MBU parity-coverage analysis: under the spatial multi-bit upset model
// ("mbu") one particle flips a whole cluster of physically adjacent
// flip-flops, and an XOR parity tree only sees the cluster when some group
// overlaps it an odd number of times — an even number of flips inside one
// group cancels in the tree and is invisible. Grouping geometry therefore
// decides detection: contiguous groups over placement-adjacent bits can
// swallow a two-flip cluster whole, while interleaved groups
// (parity.Interleave) guarantee adjacent bits sit in different groups and
// every hit group sees exactly one flip. This file quantifies that
// tradeoff against a measured mbu campaign, the LEAP-DICE-vs-interleaving
// comparison the fault-model layer exists to expose: LEAP-DICE hardens
// each cell individually and is indifferent to clustering, so its cost
// premium buys exactly the coverage that non-interleaved parity loses.

// MBUGroupingEval is the outcome of evaluating one parity grouping against
// an mbu-model campaign.
type MBUGroupingEval struct {
	Strikes  int // strike bits with campaign samples
	Detected int // strikes whose cluster the grouping detects
	// ResidualSDC is the expected SDC passthrough: the campaign's
	// silent-corruption count summed over the strikes whose clusters the
	// grouping misses (detected clusters become DUEs or recoveries, not
	// SDCs). BaseSDC is the same sum over all strikes — the unprotected
	// mbu SDC mass the grouping is defending.
	ResidualSDC float64
	BaseSDC     float64
}

// Coverage returns the fraction of strike clusters detected.
func (ev MBUGroupingEval) Coverage() float64 {
	if ev.Strikes == 0 {
		return 0
	}
	return float64(ev.Detected) / float64(ev.Strikes)
}

// groupOf maps every flip-flop to its ordinal in the grouping (-1 when
// ungrouped).
func groupOf(nBits int, g parity.Grouping) []int {
	idx := make([]int, nBits)
	for i := range idx {
		idx[i] = -1
	}
	for gi, grp := range g.Groups {
		for _, b := range grp {
			idx[b] = gi
		}
	}
	return idx
}

// clusterDetected reports whether a grouping detects a flip cluster: some
// parity group must hold an odd number of the cluster's bits.
func clusterDetected(groupIdx []int, cluster []int) bool {
	// Clusters are tiny (the struck bit plus its SEMU-radius neighbours),
	// so count parities in a scratch map sized for the cluster.
	par := make(map[int]bool, len(cluster))
	for _, b := range cluster {
		if gi := groupIdx[b]; gi >= 0 {
			par[gi] = !par[gi]
		}
	}
	for _, odd := range par {
		if odd {
			return true
		}
	}
	return false
}

// EvalMBUGrouping scores a parity grouping against an mbu-model campaign
// result: every sampled strike bit expands to its placement cluster
// (inject.ModelEnv.Cluster — the same expansion the campaign injected),
// and the strike's silent corruptions count as residual only when no
// parity group sees the cluster with odd multiplicity.
func EvalMBUGrouping(env *inject.ModelEnv, g parity.Grouping, r *inject.Result) MBUGroupingEval {
	groupIdx := groupOf(len(r.PerFF), g)
	var ev MBUGroupingEval
	var cluster []int
	for bit, st := range r.PerFF {
		if st.N == 0 {
			continue
		}
		ev.Strikes++
		sdc := float64(st.OMM)
		ev.BaseSDC += sdc
		if cluster = env.Cluster(bit, cluster[:0]); clusterDetected(groupIdx, cluster) {
			ev.Detected++
		} else {
			ev.ResidualSDC += sdc
		}
	}
	return ev
}
