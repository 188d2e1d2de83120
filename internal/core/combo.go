package core

import (
	"math"
	"strings"

	"clear/internal/bench"
	"clear/internal/inject"
	"clear/internal/power"
	"clear/internal/recovery"
	"clear/internal/stack"
	"clear/internal/technique"
)

// Combo is one cross-layer combination: a set of techniques spanning the
// stack plus a recovery choice.
type Combo struct {
	DICE, Parity, EDS bool
	Variant           Variant
	Recovery          recovery.Kind
}

// Name renders a readable combination label: the active techniques in
// canonical registry order (this is the single source of the display
// ordering that used to be duplicated here and in the enumeration).
func (c Combo) Name() string {
	var parts []string
	seen := map[string]bool{}
	technique.Default().Walk(func(t technique.Technique) {
		seen[t.Name()] = true
		if c.Active(t.Name()) {
			parts = append(parts, t.Name())
		}
	})
	// extras whose technique has since been unregistered still label
	for _, x := range c.Variant.Extra {
		if !seen[x] {
			parts = append(parts, x)
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "unprotected")
	}
	s := strings.Join(parts, "+")
	if c.Recovery != recovery.None {
		s += " (+" + c.Recovery.String() + ")"
	}
	return s
}

// Outcome is the evaluated result of a combination on one benchmark.
type Outcome struct {
	SDCImp    float64
	DUEImp    float64
	Cost      power.Cost
	Gamma     float64
	Protected int // flip-flops given circuit/logic protection
	TargetMet bool
}

// HighLevelGamma returns the γ overhead factors contributed by the high
// layers of a combination: checker flip-flops and execution-time increase,
// gathered from the active techniques' GammaContributors. The recovery's
// flip-flop overhead is applied via PlanFFOverhead, not here; only its
// execution-time impact (pipeline flush) enters.
func (e *Engine) HighLevelGamma(c Combo, execOverhead float64) float64 {
	return e.highLevelGamma(c.ActiveTechniques(), c.Recovery, execOverhead)
}

// highLevelGamma is HighLevelGamma of a combination with active
// techniques active and recovery rec.
func (e *Engine) highLevelGamma(active []technique.Technique, rec recovery.Kind, execOverhead float64) float64 {
	var ffOv, timeOv []float64
	coreName := e.Kind.String()
	for _, t := range active {
		gc, ok := t.(technique.GammaContributor)
		if !ok {
			continue
		}
		if f := gc.GammaFF(coreName); f != 0 {
			ffOv = append(ffOv, f)
		}
		if x := gc.GammaExec(coreName); x != 0 {
			timeOv = append(timeOv, x)
		}
	}
	if execOverhead > 0 {
		timeOv = append(timeOv, execOverhead)
	}
	if rt := technique.Default().Recovery(rec); rt != nil {
		if gc, ok := rt.(technique.GammaContributor); ok {
			if x := gc.GammaExec(coreName); x != 0 {
				timeOv = append(timeOv, x)
			}
		}
	}
	return stack.Gamma(ffOv, timeOv)
}

// HighLevelCost sums the hardware/execution costs of a combination's high
// layers (the software/algorithm execution overhead is measured): the fixed
// Cost contributions of the active techniques.
func (e *Engine) HighLevelCost(c Combo, execOverhead float64) power.Cost {
	return e.highLevelCost(c.ActiveTechniques(), execOverhead)
}

// highLevelCost is HighLevelCost of a combination with active techniques
// active.
func (e *Engine) highLevelCost(active []technique.Technique, execOverhead float64) power.Cost {
	cost := power.Cost{ExecTime: execOverhead}
	coreName := e.Kind.String()
	for _, t := range active {
		if tc := t.Cost(e.Model, coreName); tc != (power.Cost{}) {
			cost = cost.Plus(tc)
		}
	}
	return cost
}

// EvalCombo evaluates a combination on one benchmark against a target
// improvement in the given metric (math.Inf(1) for the "max" design
// point). It implements the paper's top-down methodology: the high layers'
// residual vulnerability is measured by injection, then Heuristic 1 closes
// the remaining gap.
func (e *Engine) EvalCombo(b *bench.Benchmark, c Combo, metric Metric, target float64) (Outcome, error) {
	out, _, err := e.PlanCombo(b, c, metric, target)
	return out, err
}

// PlanCombo is EvalCombo returning the concrete implementation plan as well
// (used for plan post-processing such as LEAP-ctrl augmentation).
func (e *Engine) PlanCombo(b *bench.Benchmark, c Combo, metric Metric, target float64) (Outcome, *Plan, error) {
	in, err := e.comboInputs(b, c)
	if err != nil {
		return Outcome{}, nil, err
	}
	plan, im, ok := e.selectiveHarden(in.techRes, in.opt, metric, target)
	if !ok {
		im = e.implement(plan)
	}
	return e.outcome(in.techRes, plan, im, in.opt, in.highCost, target, metric), plan, nil
}

// OutcomeForPlan evaluates a fixed plan under a combination's high layers
// on one benchmark (used after plan post-processing).
func (e *Engine) OutcomeForPlan(b *bench.Benchmark, c Combo, plan *Plan) (Outcome, error) {
	in, err := e.comboInputs(b, c)
	if err != nil {
		return Outcome{}, err
	}
	return e.finishOutcome(c, in.techRes, plan, in.opt, in.execOv, math.Inf(1), SDC)
}

// EvalComboJoint meets SDC and DUE targets simultaneously (Table 20).
func (e *Engine) EvalComboJoint(b *bench.Benchmark, c Combo, target float64) (Outcome, error) {
	in, err := e.comboInputs(b, c)
	if err != nil {
		return Outcome{}, err
	}
	plan := e.JointHarden(in.techRes, in.opt, target)
	out, err := e.finishOutcome(c, in.techRes, plan, in.opt, in.execOv, target, SDC)
	if err != nil {
		return out, err
	}
	out.TargetMet = out.SDCImp >= target && out.DUEImp >= target ||
		math.IsInf(target, 1)
	return out, nil
}

// cellInputs is what evaluating a combination on one benchmark starts
// from, gathered once per cell by comboInputs.
type cellInputs struct {
	techRes  *inject.Result // the campaign of the combination's variant
	execOv   float64        // the variant's measured execution overhead
	highCost power.Cost     // HighLevelCost at execOv
	opt      HardenOptions
}

// comboInputs gathers what evaluating combination c on b starts from: the
// campaign of c's high-layer variant (the base campaign for the "base"
// tag), the variant's measured execution overhead, the high layers' cost,
// and the hardening options — c's low-layer techniques and recovery, its
// high layers' fixed γ, and the unprotected design's SDC and DUE rates.
// It renders the variant's tag and lists c's active techniques once.
func (e *Engine) comboInputs(b *bench.Benchmark, c Combo) (cellInputs, error) {
	baseRes, err := e.Base(b)
	if err != nil {
		return cellInputs{}, err
	}
	tag := c.Variant.Tag()
	techRes := baseRes
	if tag != baseTag {
		techRes, err = e.campaign(b, c.Variant, tag)
		if err != nil {
			return cellInputs{}, err
		}
	}
	execOv, err := e.execOverhead(b, c.Variant, tag)
	if err != nil {
		return cellInputs{}, err
	}
	active := c.ActiveTechniques()
	n := float64(baseRes.Totals.N)
	return cellInputs{
		techRes:  techRes,
		execOv:   execOv,
		highCost: e.highLevelCost(active, execOv),
		opt: HardenOptions{
			DICE: c.DICE, Parity: c.Parity, EDS: c.EDS,
			Recovery:    c.Recovery,
			FixedGamma:  e.highLevelGamma(active, c.Recovery, execOv),
			BaseSDCRate: float64(baseRes.Totals.SDC()) / n,
			BaseDUERate: float64(baseRes.Totals.UT+baseRes.Totals.Hang) / n,
		},
	}, nil
}

// finishOutcome evaluates plan under combination c's high layers,
// implementing it anew.
func (e *Engine) finishOutcome(c Combo, techRes *inject.Result, plan *Plan,
	opt HardenOptions, execOv, target float64, metric Metric) (Outcome, error) {
	return e.outcome(techRes, plan, e.implement(plan), opt, e.HighLevelCost(c, execOv), target, metric), nil
}

// outcome evaluates a plan with its implementation im: the residual rates,
// γ, protected count, and cost over the high layers' cost highCost.
func (e *Engine) outcome(techRes *inject.Result, plan *Plan, im planImpl,
	opt HardenOptions, highCost power.Cost, target float64, metric Metric) Outcome {
	var out Outcome
	out.SDCImp, out.DUEImp, out.Gamma = e.improvements(techRes, plan, im, opt)
	out.Protected = im.protected()
	out.Cost = highCost.Plus(e.planCost(plan, im))
	if math.IsInf(target, 1) {
		out.TargetMet = true
	} else if metric == SDC {
		out.TargetMet = out.SDCImp >= target
	} else {
		out.TargetMet = out.DUEImp >= target
	}
	return out
}

// AvgOutcome averages a combination across benchmarks at a target: costs
// are averaged (the paper builds one design per benchmark and averages),
// improvements are computed from aggregate error counts.
type AvgOutcome struct {
	Combo    Combo
	Target   float64
	Metric   Metric
	SDCImp   float64
	DUEImp   float64
	Cost     power.Cost
	NBench   int
	TargetOK bool
}

// EvalComboAvg evaluates a combination over the core's full benchmark list.
func (e *Engine) EvalComboAvg(c Combo, metric Metric, target float64) (AvgOutcome, error) {
	bs := e.Benchmarks()
	avg := AvgOutcome{Combo: c, Target: target, Metric: metric, TargetOK: true}
	var sumSDC, sumDUE, sumGamma float64
	n := 0
	for _, b := range bs {
		out, err := e.EvalCombo(b, c, metric, target)
		if err != nil {
			return avg, err
		}
		avg.Cost.Area += out.Cost.Area
		avg.Cost.Power += out.Cost.Power
		avg.Cost.ExecTime += out.Cost.ExecTime
		sumSDC += invOrCap(out.SDCImp)
		sumDUE += invOrCap(out.DUEImp)
		sumGamma += out.Gamma
		if !out.TargetMet {
			avg.TargetOK = false
		}
		n++
	}
	if n == 0 {
		return avg, nil
	}
	avg.Cost.Area /= float64(n)
	avg.Cost.Power /= float64(n)
	avg.Cost.ExecTime /= float64(n)
	// harmonic-style average: mean of reciprocals, robust to +Inf points
	avg.SDCImp = float64(n) / sumSDC
	avg.DUEImp = float64(n) / sumDUE
	avg.NBench = n
	return avg, nil
}

// invOrCap maps an improvement to its reciprocal, treating +Inf (fully
// protected) as zero residual.
func invOrCap(imp float64) float64 {
	if math.IsInf(imp, 1) {
		return 0
	}
	if imp <= 0 {
		return 1
	}
	return 1 / imp
}
