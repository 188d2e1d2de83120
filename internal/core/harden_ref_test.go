package core

import (
	"math"
	"sort"

	"clear/internal/circuitlib"
	"clear/internal/inject"
	"clear/internal/parity"
	"clear/internal/power"
	"clear/internal/recovery"
	"clear/internal/stack"
	"clear/internal/technique"
)

// This file keeps the straightforward form of Heuristic 1 and of plan
// evaluation as the oracle for harden.go and plan.go: a stable sort of every
// flip-flop by its failure count, a technique map built per Evaluate call,
// and a parity grouping formed anew for each γ overhead and each cost.
// harden_equiv_test.go requires the production code to return the same
// plans and bit-identical outcomes.

// refSelectiveHarden is SelectiveHarden over a stable descending sort of
// every flip-flop.
func (e *Engine) refSelectiveHarden(res *inject.Result, opt HardenOptions, metric Metric, target float64) *Plan {
	plan := NewPlan(len(res.PerFF), opt.Recovery)
	if !opt.DICE && !opt.Parity && !opt.EDS {
		return plan
	}
	if metric == DUE && opt.Recovery == recovery.None {
		if !opt.DICE {
			return plan
		}
		opt.Parity, opt.EDS = false, false
	}

	order := make([]int, len(res.PerFF))
	for i := range order {
		order[i] = i
	}
	key := func(bit int) float64 {
		st := res.PerFF[bit]
		if metric == SDC {
			return float64(st.OMM)
		}
		return float64(st.UT) + float64(st.Hang) + float64(st.ED)
	}
	sort.SliceStable(order, func(a, b int) bool { return key(order[a]) > key(order[b]) })

	achieved := func() bool {
		if math.IsInf(target, 1) {
			return false
		}
		resid := e.refEvaluate(res, plan)
		sdcR, dueR := rates(res, resid)
		gamma := opt.FixedGamma * (1 + e.refPlanFFOverhead(plan))
		var imp float64
		if metric == SDC {
			imp = stack.Improvement(opt.BaseSDCRate, sdcR, gamma)
		} else {
			imp = stack.Improvement(opt.BaseDUERate, dueR, gamma)
		}
		return imp >= target
	}

	totalN := float64(res.Totals.N)
	curSDC, curDUE := 0.0, 0.0
	for _, st := range res.PerFF {
		curSDC += float64(st.OMM)
		curDUE += float64(st.UT) + float64(st.Hang) + float64(st.ED)
	}
	parityish := 0
	coreName := e.Kind.String()
	serDICE := serOf(CellDICE)
	applyDelta := func(bit int, cell CellKind) {
		st := res.PerFF[bit]
		sdc := float64(st.OMM)
		due := float64(st.UT) + float64(st.Hang) + float64(st.ED)
		switch cell {
		case CellDICE, CellCtrlRes:
			curSDC -= sdc * (1 - serDICE)
			curDUE -= due * (1 - serDICE)
		case CellLHL:
			curSDC -= sdc * 0.75
			curDUE -= due * 0.75
		case CellParity, CellEDS:
			parityish++
			if plan.Recovery != recovery.None &&
				recovery.Recoverable(plan.Recovery, coreName, e.Space, bit) {
				curSDC -= sdc
				curDUE -= due
			} else {
				curSDC -= sdc
				curDUE += float64(st.N) - due
			}
		}
	}
	quickMet := func() bool {
		gamma := opt.FixedGamma * (1 + technique.RecoveryFFOverhead(plan.Recovery, coreName) +
			0.3*float64(parityish)/float64(e.Model.NumFFs))
		var imp float64
		if metric == SDC {
			imp = stack.Improvement(opt.BaseSDCRate, curSDC/totalN, gamma)
		} else {
			imp = stack.Improvement(opt.BaseDUERate, curDUE/totalN, gamma)
		}
		return imp >= target
	}

	for _, bit := range order {
		if plan.Assign[bit] != CellNone {
			continue
		}
		if !math.IsInf(target, 1) && key(bit) == 0 {
			break
		}
		cell := e.chooseCell(bit, opt.DICE, opt.Parity, opt.EDS, opt.Recovery)
		plan.Assign[bit] = cell
		applyDelta(bit, cell)
		if !math.IsInf(target, 1) && quickMet() && achieved() {
			return plan
		}
	}
	if math.IsInf(target, 1) {
		for bit := range plan.Assign {
			if plan.Assign[bit] == CellNone {
				plan.Assign[bit] = e.chooseCell(bit, opt.DICE, opt.Parity, opt.EDS, opt.Recovery)
			}
		}
		return plan
	}
	if achieved() {
		return plan
	}
	sinceCheck := 0
	for _, bit := range order {
		if plan.Assign[bit] == CellNone {
			plan.Assign[bit] = e.chooseCell(bit, opt.DICE, opt.Parity, opt.EDS, opt.Recovery)
			sinceCheck++
			if sinceCheck >= 64 {
				sinceCheck = 0
				if achieved() {
					return plan
				}
			}
		}
	}
	return plan
}

// refJointHarden is JointHarden over refSelectiveHarden and a stable
// descending sort of every flip-flop by its DUE count.
func (e *Engine) refJointHarden(res *inject.Result, opt HardenOptions, target float64) *Plan {
	plan := e.refSelectiveHarden(res, opt, SDC, target)
	order := make([]int, len(res.PerFF))
	for i := range order {
		order[i] = i
	}
	dueKey := func(bit int) float64 {
		st := res.PerFF[bit]
		return float64(st.UT) + float64(st.Hang) + float64(st.ED)
	}
	sort.SliceStable(order, func(a, b int) bool { return dueKey(order[a]) > dueKey(order[b]) })
	dueMet := func() bool {
		resid := e.refEvaluate(res, plan)
		_, dueR := rates(res, resid)
		gamma := opt.FixedGamma * (1 + e.refPlanFFOverhead(plan))
		return stack.Improvement(opt.BaseDUERate, dueR, gamma) >= target
	}
	if math.IsInf(target, 1) {
		for bit := range plan.Assign {
			if plan.Assign[bit] == CellNone {
				plan.Assign[bit] = e.chooseCell(bit, opt.DICE, opt.Parity, opt.EDS, opt.Recovery)
			}
		}
		return plan
	}
	if dueMet() {
		return plan
	}
	since := 0
	for _, bit := range order {
		if plan.Assign[bit] != CellNone {
			continue
		}
		plan.Assign[bit] = e.chooseCell(bit, opt.DICE, opt.Parity, opt.EDS, opt.Recovery)
		since++
		if since >= 16 {
			since = 0
			if dueMet() {
				return plan
			}
		}
	}
	return plan
}

// refEvaluate is Evaluate with its protectors looked up through a map.
func (e *Engine) refEvaluate(res *inject.Result, plan *Plan) Residuals {
	var out Residuals
	coreName := e.Kind.String()
	prot := map[CellKind]technique.FFProtector{
		CellDICE:   ffProtector(technique.NameLEAPDICE),
		CellParity: ffProtector(technique.NameParity),
		CellEDS:    ffProtector(technique.NameEDS),
	}
	for bit, st := range res.PerFF {
		sdc := float64(st.OMM)
		due := float64(st.UT) + float64(st.Hang) + float64(st.ED)
		switch c := plan.Assign[bit]; c {
		case CellNone, CellCtrlEco:
			out.SDC += sdc
			out.DUE += due
		case CellLHL, CellCtrlRes:
			f := serOf(c)
			out.SDC += sdc * f
			out.DUE += due * f
		case CellDICE, CellParity, CellEDS:
			p := prot[c]
			if p == nil {
				out.SDC += sdc
				out.DUE += due
				continue
			}
			recovered := !p.Corrects() && plan.Recovery != recovery.None &&
				recovery.Recoverable(plan.Recovery, coreName, e.Space, bit)
			rs, rd := p.Residual(float64(st.N), sdc, due, recovered)
			out.SDC += rs
			out.DUE += rd
		}
	}
	return out
}

// refCounts tallies plan cells by kind into a map.
func refCounts(p *Plan) map[CellKind]int {
	m := map[CellKind]int{}
	for _, c := range p.Assign {
		if c != CellNone {
			m[c]++
		}
	}
	return m
}

// refBitsOf returns the flip-flops assigned a given cell kind.
func refBitsOf(p *Plan, kind CellKind) []int {
	var out []int
	for bit, c := range p.Assign {
		if c == kind {
			out = append(out, bit)
		}
	}
	return out
}

// refParityGrouping forms the plan's optimized parity grouping.
func (e *Engine) refParityGrouping(p *Plan) parity.Grouping {
	bits := refBitsOf(p, CellParity)
	if len(bits) == 0 {
		return parity.Grouping{}
	}
	return parity.Group(parity.OptimizedH, 16, e.Space, e.Pl, nil, bits)
}

// refPlanCost is PlanCost forming its own parity grouping.
func (e *Engine) refPlanCost(p *Plan) power.Cost {
	counts := refCounts(p)
	harden := map[circuitlib.FFType]int{}
	if n := counts[CellDICE]; n > 0 {
		harden[circuitlib.LEAPDICE] = n
	}
	if n := counts[CellLHL]; n > 0 {
		harden[circuitlib.LHL] = n
	}
	if n := counts[CellCtrlEco]; n > 0 {
		harden[circuitlib.LEAPCtrlEconomy] = n
	}
	if n := counts[CellCtrlRes]; n > 0 {
		harden[circuitlib.LEAPCtrlResilient] = n
	}
	cost := e.Model.HardenFFs(harden)
	if counts[CellParity] > 0 {
		cost = cost.Plus(e.Model.ParityCost(e.refParityGrouping(p), e.Pl))
	}
	if bits := refBitsOf(p, CellEDS); len(bits) > 0 {
		cost = cost.Plus(e.Model.EDSCost(bits, e.Pl))
	}
	if p.Recovery != recovery.None {
		cost = cost.Plus(recovery.Cost(p.Recovery, e.Kind.String()))
	}
	return cost
}

// refPlanFFOverhead is PlanFFOverhead forming its own parity grouping.
func (e *Engine) refPlanFFOverhead(p *Plan) float64 {
	over := technique.RecoveryFFOverhead(p.Recovery, e.Kind.String())
	if g := e.refParityGrouping(p); len(g.Groups) > 0 {
		over += float64(g.NumPipelineFFs()+g.ErrorFFs()) / float64(e.Model.NumFFs)
	}
	if n := len(refBitsOf(p, CellEDS)); n > 0 {
		over += float64(n/32+1) / float64(e.Model.NumFFs)
	}
	return over
}

// refFinishOutcome is finishOutcome over the reference evaluation.
func (e *Engine) refFinishOutcome(c Combo, techRes *inject.Result, plan *Plan,
	opt HardenOptions, execOv, target float64, metric Metric) Outcome {
	resid := e.refEvaluate(techRes, plan)
	sdcR, dueR := rates(techRes, resid)
	gamma := opt.FixedGamma * (1 + e.refPlanFFOverhead(plan))

	out := Outcome{
		SDCImp: stack.Improvement(opt.BaseSDCRate, sdcR, gamma),
		DUEImp: stack.Improvement(opt.BaseDUERate, dueR, gamma),
		Gamma:  gamma,
	}
	for _, a := range plan.Assign {
		if a != CellNone {
			out.Protected++
		}
	}
	out.Cost = e.HighLevelCost(c, execOv).Plus(e.refPlanCost(plan))
	if math.IsInf(target, 1) {
		out.TargetMet = true
	} else if metric == SDC {
		out.TargetMet = out.SDCImp >= target
	} else {
		out.TargetMet = out.DUEImp >= target
	}
	return out
}
