package experiments

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/stack"
)

// linearPrefix is the oracle for naivePrefix: protect one more flip-flop
// in allocation order and re-evaluate the whole plan, until the target is
// met.
func linearPrefix(e *core.Engine, agg *inject.Result, baseSDC, tgt float64) (int, bool) {
	n := len(agg.PerFF)
	for k := 1; k <= n; k++ {
		resid := e.Evaluate(agg, dicePrefix(n, k))
		if stack.Improvement(baseSDC, resid.SDC/float64(agg.Totals.N), 1) >= tgt {
			return k, true
		}
	}
	return n, false
}

// ommCampaign returns a campaign over n flip-flops with samples injections
// each, failing with an SDC omm[bit] times on each listed flip-flop.
func ommCampaign(n, samples int, omm map[int]int) *inject.Result {
	res := &inject.Result{PerFF: make([]inject.FFStats, n)}
	for bit := range res.PerFF {
		st := &res.PerFF[bit]
		st.N = uint16(samples)
		st.OMM = uint16(omm[bit])
		res.Totals.N += samples
		res.Totals.OMM += omm[bit]
		res.Totals.Vanished += samples - omm[bit]
	}
	return res
}

// TestNaivePrefixMatchesLinearScan compares ablation1's binary search for
// the naive ordering's cut-off with the linear scan it replaced, on
// synthetic campaigns over the in-order core's flip-flops: no failures,
// ties, a single failing flip-flop, targets met at the first and at the
// last flip-flop, unreachable targets, and seeded random campaigns. The
// prefix length and whether the target is met must match.
func TestNaivePrefixMatchesLinearScan(t *testing.T) {
	e := core.NewEngine(inject.InO)
	n := e.Space.NumBits()
	type tc struct {
		name string
		omm  map[int]int
		tgt  float64
		// want is the cut-off the case is built to reach, 0 for a target
		// it cannot meet, and -1 for a random case that pins neither
		want int
	}
	cases := []tc{
		{name: "no failures", omm: nil, tgt: 5},
		{name: "no failures, target 1", omm: nil, tgt: 1, want: 1},
		{name: "first flip-flop", omm: map[int]int{0: 3}, tgt: 50, want: 1},
		{name: "last flip-flop", omm: map[int]int{n - 1: 3}, tgt: 50, want: n},
		{name: "single in the middle", omm: map[int]int{n / 2: 1}, tgt: 5, want: n/2 + 1},
		{name: "single, unreachable", omm: map[int]int{n / 2: 1}, tgt: 1e9},
		{name: "ties", omm: map[int]int{10: 2, 20: 2, 30: 2, 40: 2}, tgt: 1.9, want: 21},
		{name: "ties, unreachable", omm: map[int]int{10: 2, 20: 2, 30: 2, 40: 2}, tgt: 1e6},
	}
	rng := rand.New(rand.NewPCG(0xAB1A, 1))
	for s := 0; s < 12; s++ {
		omm := map[int]int{}
		failing := 1 + rng.IntN(200)
		for i := 0; i < failing; i++ {
			omm[rng.IntN(n)] = 1 + rng.IntN(3)
		}
		for _, tgt := range []float64{1.5, 5, 50, 500, 1e5} {
			cases = append(cases, tc{name: fmt.Sprintf("seed %d", s), omm: omm, tgt: tgt, want: -1})
		}
	}
	for _, c := range cases {
		agg := ommCampaign(n, 4, c.omm)
		baseSDC := float64(agg.Totals.SDC()) / float64(agg.Totals.N)
		k, met := naivePrefix(e, agg, baseSDC, c.tgt)
		wantK, wantMet := linearPrefix(e, agg, baseSDC, c.tgt)
		if k != wantK || met != wantMet {
			t.Errorf("%s at %vx: binary search (%d, %v), linear scan (%d, %v)", c.name, c.tgt, k, met, wantK, wantMet)
		}
		switch {
		case c.want == 0 && wantMet:
			t.Errorf("%s at %vx: linear scan met the target at %d, case expects it unreachable", c.name, c.tgt, wantK)
		case c.want > 0 && (!wantMet || wantK != c.want):
			t.Errorf("%s at %vx: linear scan (%d, %v), case expects (%d, true)", c.name, c.tgt, wantK, wantMet, c.want)
		}
	}
}
