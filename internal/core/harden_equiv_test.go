package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"clear/internal/inject"
	"clear/internal/recovery"
)

// Equivalence of Heuristic 1 and plan evaluation with their reference
// forms in harden_ref_test.go, on synthetic campaigns: every HardenOptions
// combination, both metrics, JointHarden, and targets from easy to
// unreachable (1e12 walks the fallback over every flip-flop).

// hardenTargets are the improvement targets the equivalence checks use.
var hardenTargets = []float64{2, 5, 50, 500, 1e12, math.Inf(1)}

// hardenRecoveries are every recovery kind, valid on the core or not.
var hardenRecoveries = []recovery.Kind{recovery.None, recovery.Flush, recovery.RoB, recovery.IR, recovery.EIR}

// Synthetic campaign profiles.
const (
	profileZero   = iota // one vanished sample per flip-flop
	profileSparse        // one sample per flip-flop, a few failing
	profileDense         // 24 samples per flip-flop, most failing
	numProfiles
)

// synthCampaign returns a campaign over e's flip-flop space whose
// per-flip-flop outcomes are drawn from seed under a profile.
func synthCampaign(e *Engine, seed uint64, profile int) *inject.Result {
	rng := rand.New(rand.NewPCG(seed, uint64(profile)))
	samples, failPct := 1, 0
	switch profile {
	case profileSparse:
		failPct = 8
	case profileDense:
		samples, failPct = 24, 60
	}
	res := &inject.Result{
		Config: inject.Config{Core: e.Kind, SamplesPerFF: samples},
		PerFF:  make([]inject.FFStats, e.Space.NumBits()),
	}
	for bit := range res.PerFF {
		st := &res.PerFF[bit]
		for s := 0; s < samples; s++ {
			out := inject.Vanished
			if rng.IntN(100) < failPct {
				out = []inject.Outcome{inject.OMM, inject.UT, inject.Hang, inject.ED}[rng.IntN(4)]
			}
			st.N++
			switch out {
			case inject.OMM:
				st.OMM++
			case inject.UT:
				st.UT++
			case inject.Hang:
				st.Hang++
			case inject.ED:
				st.ED++
			}
			res.Totals.Add(out)
		}
	}
	return res
}

// hardenCase is one Heuristic 1 pass to compare: SelectiveHarden under
// metric, or JointHarden when joint is set.
type hardenCase struct {
	opt    HardenOptions
	metric Metric
	joint  bool
	target float64
}

func (hc hardenCase) String() string {
	pass := hc.metric.String()
	if hc.joint {
		pass = "joint"
	}
	o := hc.opt
	return fmt.Sprintf("DICE=%v Parity=%v EDS=%v rec=%v γ=%v %s@%v",
		o.DICE, o.Parity, o.EDS, o.Recovery, o.FixedGamma, pass, hc.target)
}

// checkHardenCase runs one pass through the production and reference code
// and requires the same plan and a bit-identical outcome.
func checkHardenCase(t *testing.T, e *Engine, res *inject.Result, hc hardenCase) {
	t.Helper()
	var got, want *Plan
	switch {
	case hc.joint:
		got, want = e.JointHarden(res, hc.opt, hc.target), e.refJointHarden(res, hc.opt, hc.target)
	default:
		got, want = e.SelectiveHarden(res, hc.opt, hc.metric, hc.target), e.refSelectiveHarden(res, hc.opt, hc.metric, hc.target)
	}
	if got.Recovery != want.Recovery || !slices.Equal(got.Assign, want.Assign) {
		t.Fatalf("%s: plans differ (protected %d vs reference %d)", hc, protectedCount(got), protectedCount(want))
	}
	c := Combo{DICE: hc.opt.DICE, Parity: hc.opt.Parity, EDS: hc.opt.EDS, Recovery: hc.opt.Recovery}
	out, err := e.finishOutcome(c, res, got, hc.opt, 0.125, hc.target, hc.metric)
	if err != nil {
		t.Fatal(err)
	}
	ref := e.refFinishOutcome(c, res, want, hc.opt, 0.125, hc.target, hc.metric)
	floats := []struct {
		name      string
		got, want float64
	}{
		{"SDCImp", out.SDCImp, ref.SDCImp},
		{"DUEImp", out.DUEImp, ref.DUEImp},
		{"Gamma", out.Gamma, ref.Gamma},
		{"Cost.Area", out.Cost.Area, ref.Cost.Area},
		{"Cost.Power", out.Cost.Power, ref.Cost.Power},
		{"Cost.ExecTime", out.Cost.ExecTime, ref.Cost.ExecTime},
	}
	for _, f := range floats {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s: %s = %v, reference %v", hc, f.name, f.got, f.want)
		}
	}
	if out.Protected != ref.Protected || out.TargetMet != ref.TargetMet {
		t.Fatalf("%s: protected %d target met %v, reference %d %v",
			hc, out.Protected, out.TargetMet, ref.Protected, ref.TargetMet)
	}
	if got, want := e.PlanCost(got), e.refPlanCost(want); got != want {
		t.Fatalf("%s: PlanCost %+v, reference %+v", hc, got, want)
	}
	if got, want := e.PlanFFOverhead(got), e.refPlanFFOverhead(want); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: PlanFFOverhead %v, reference %v", hc, got, want)
	}
}

// hardenOptions returns the pass options of a low-level technique mask
// (bit 0 DICE, 1 parity, 2 EDS) and recovery over res's baseline rates.
func hardenOptions(res *inject.Result, mask int, rec recovery.Kind, gamma float64) HardenOptions {
	return HardenOptions{
		DICE: mask&1 != 0, Parity: mask&2 != 0, EDS: mask&4 != 0,
		Recovery:    rec,
		FixedGamma:  gamma,
		BaseSDCRate: BaseRate(res, SDC),
		BaseDUERate: BaseRate(res, DUE),
	}
}

// TestHardenMatchesReference compares SelectiveHarden, JointHarden and the
// outcome evaluation with their reference forms on seeded synthetic
// campaigns of both cores: every technique mask and recovery kind, both
// metrics (including DUE with no recovery) and JointHarden. The in-order
// core runs every profile at every target that can behave differently. A
// pass that cannot reach its target re-evaluates the plan every 16 or 64
// flip-flops, which costs seconds over the out-of-order core's 11,415, so
// that core runs the sparse and dense profiles through SelectiveHarden at
// targets 5 and +Inf and through JointHarden at +Inf;
// FuzzHardenEquivalence covers the rest of its space.
func TestHardenMatchesReference(t *testing.T) {
	for _, kind := range []inject.CoreKind{inject.InO, inject.OoO} {
		e := NewEngine(kind)
		profiles := []int{profileZero, profileSparse, profileDense}
		if kind == inject.OoO {
			profiles = profiles[1:]
		}
		for _, profile := range profiles {
			res := synthCampaign(e, 0x5EED+uint64(profile), profile)
			targets := hardenTargets
			switch {
			case kind == inject.OoO:
				targets = []float64{5, math.Inf(1)}
			case profile == profileZero:
				// no failures: every finite target above 1 is out of reach
				// alike, so one walks the fallback for all
				targets = []float64{2, math.Inf(1)}
			}
			t.Run(fmt.Sprintf("%v/profile%d", kind, profile), func(t *testing.T) {
				t.Parallel()
				for mask := 0; mask < 8; mask++ {
					for _, rec := range hardenRecoveries {
						opt := hardenOptions(res, mask, rec, 1+float64(mask)/8)
						for _, target := range targets {
							checkHardenCase(t, e, res, hardenCase{opt: opt, metric: SDC, target: target})
							checkHardenCase(t, e, res, hardenCase{opt: opt, metric: DUE, target: target})
							if kind == inject.InO || math.IsInf(target, 1) {
								checkHardenCase(t, e, res, hardenCase{opt: opt, joint: true, target: target})
							}
						}
					}
				}
			})
		}
	}
}

// FuzzHardenEquivalence draws a synthetic campaign, a technique mask, a
// recovery kind, a pass and a target, and requires the production plan and
// outcome to match the reference bit for bit.
func FuzzHardenEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(2), uint8(2), uint8(1), uint8(2))
	f.Add(uint64(3), uint8(2), uint8(7), uint8(1), uint8(2), uint8(4))
	f.Add(uint64(4), uint8(1), uint8(3), uint8(0), uint8(1), uint8(4))
	f.Add(uint64(5), uint8(2), uint8(5), uint8(4), uint8(2), uint8(5))
	f.Add(uint64(6), uint8(0x81), uint8(6), uint8(2), uint8(0), uint8(3))
	engines := []*Engine{NewEngine(inject.InO), NewEngine(inject.OoO)}
	f.Fuzz(func(t *testing.T, seed uint64, profile, mask, rec, pass, target uint8) {
		e := engines[int(profile>>7)]
		res := synthCampaign(e, seed, int(profile&0x7f)%numProfiles)
		opt := hardenOptions(res, int(mask%8), hardenRecoveries[int(rec)%len(hardenRecoveries)], 1+float64(mask>>3)/32)
		hc := hardenCase{opt: opt, target: hardenTargets[int(target)%len(hardenTargets)]}
		switch pass % 3 {
		case 1:
			hc.metric = DUE
		case 2:
			hc.joint = true
		}
		checkHardenCase(t, e, res, hc)
	})
}
