package experiments

import (
	"fmt"
	"sort"

	"clear/internal/analysis"
	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/recovery"
	"clear/internal/stack"
)

// Ablations of CLEAR's own design choices (not paper tables): what the
// vulnerability-guided ordering and Heuristic 1's HARDEN predicate are
// actually worth.

func init() {
	register("ablation1", "Ablation: vulnerability-guided vs naive flip-flop ordering", ablation1)
	register("ablation2", "Ablation: Heuristic 1's HARDEN predicate under flush recovery", ablation2)
}

// ablation1 compares the selective-hardening cost of reaching SDC targets
// when flip-flops are protected in measured-vulnerability order (CLEAR)
// versus naive allocation order — quantifying the value of
// injection-guided selection (the paper's "guided by error injection"
// refrain).
func ablation1(ctx *Ctx) (string, error) {
	t := newTable("Ablation 1: energy% to reach an SDC target, guided vs naive ordering",
		"Core", "Target", "Guided (CLEAR)", "Naive order", "Penalty")
	for _, kind := range []inject.CoreKind{inject.InO, inject.OoO} {
		e := ctx.Engine(kind)
		results, err := baseAll(e)
		if err != nil {
			return "", err
		}
		agg := analysis.Aggregate(results)
		baseSDC := float64(agg.Totals.SDC()) / float64(agg.Totals.N)
		for _, tgt := range []float64{5, 50} {
			opt := core.HardenOptions{DICE: true, FixedGamma: 1, BaseSDCRate: baseSDC}
			guided := e.SelectiveHarden(agg, opt, core.SDC, tgt)
			gCost := e.PlanCost(guided)

			// naive: protect flip-flops in allocation order until the
			// target is met
			k, met := naivePrefix(e, agg, baseSDC, tgt)
			nCost := e.PlanCost(dicePrefix(len(agg.PerFF), k))
			pen := "-"
			if met && gCost.Energy() > 0 {
				pen = fmt.Sprintf("%.1fx", nCost.Energy()/gCost.Energy())
			}
			t.row(kind.String(), targetTimes(tgt),
				pct(gCost.Energy()), pct(nCost.Energy()), pen)
		}
	}
	return t.String(), nil
}

// dicePrefix returns the plan of n flip-flops that protects the first k
// with LEAP-DICE.
func dicePrefix(n, k int) *core.Plan {
	p := core.NewPlan(n, recovery.None)
	for bit := range p.Assign[:k] {
		p.Assign[bit] = core.CellDICE
	}
	return p
}

// naivePrefix returns how many flip-flops, protected with LEAP-DICE in
// allocation order, reach an SDC improvement of tgt over baseSDC on agg:
// the shortest such prefix and true, or every flip-flop and false when
// none reaches it.
//
// Protecting one more flip-flop only scales its own residual term by the
// cell's SER ratio, below 1. Evaluate adds the terms in index order, and
// rounded float addition is monotone, so the residual never rises as the
// prefix grows and the improvement never falls: a binary search over the
// prefix length finds the same cut-off as protecting one flip-flop at a
// time until the target is met.
func naivePrefix(e *core.Engine, agg *inject.Result, baseSDC, tgt float64) (k int, met bool) {
	n := len(agg.PerFF)
	i := sort.Search(n, func(i int) bool {
		resid := e.Evaluate(agg, dicePrefix(n, i+1))
		return stack.Improvement(baseSDC, resid.SDC/float64(agg.Totals.N), 1) >= tgt
	})
	if i == n {
		return n, false
	}
	return i + 1, true
}

// ablation2 removes Heuristic 1's HARDEN predicate: every selected
// flip-flop gets parity, even past the commit point where flush recovery
// cannot replay — the detected-but-unrecoverable errors then surface as
// DUE. The predicate is what makes the bounded combination deliver DUE
// improvement.
func ablation2(ctx *Ctx) (string, error) {
	e := ctx.InO
	results, err := baseAll(e)
	if err != nil {
		return "", err
	}
	agg := analysis.Aggregate(results)
	totalN := float64(agg.Totals.N)
	baseSDC := float64(agg.Totals.SDC()) / totalN
	baseDUE := float64(agg.Totals.UT+agg.Totals.Hang) / totalN

	opt := core.HardenOptions{DICE: true, Parity: true, Recovery: recovery.Flush,
		FixedGamma: 1, BaseSDCRate: baseSDC, BaseDUERate: baseDUE}
	withH := e.SelectiveHarden(agg, opt, core.SDC, 50)

	// ablated: same flip-flop set, but parity everywhere
	ablated := core.NewPlan(len(agg.PerFF), recovery.Flush)
	for bit, c := range withH.Assign {
		if c != core.CellNone {
			ablated.Assign[bit] = core.CellParity
		}
	}

	eval := func(p *core.Plan) (sdcImp, dueImp float64) {
		resid := e.Evaluate(agg, p)
		gamma := 1 + e.PlanFFOverhead(p)
		return stack.Improvement(baseSDC, resid.SDC/totalN, gamma),
			stack.Improvement(baseDUE, resid.DUE/totalN, gamma)
	}
	s1, d1 := eval(withH)
	s2, d2 := eval(ablated)

	t := newTable("Ablation 2: Heuristic 1's HARDEN predicate (InO, 50x SDC set, flush recovery)",
		"Plan", "SDC improvement", "DUE improvement")
	t.row("Heuristic 1 (DICE past commit point)", imp(s1), imp(d1))
	t.row("Ablated (parity everywhere)", imp(s2), imp(d2))
	// count how many protected FFs sit past the commit point
	unrec := 0
	for bit, c := range withH.Assign {
		if c != core.CellNone && !recovery.Recoverable(recovery.Flush, "InO", e.Space, bit) {
			unrec++
		}
	}
	t.row(fmt.Sprintf("(%d of the protected flip-flops are flush-unrecoverable)", unrec), "", "")
	return t.String(), nil
}
