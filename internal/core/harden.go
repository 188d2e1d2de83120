package core

import (
	"cmp"
	"math"
	"slices"

	"clear/internal/inject"
	"clear/internal/recovery"
	"clear/internal/stack"
	"clear/internal/technique"
)

// Metric selects which improvement a hardening pass targets.
type Metric int

// Improvement metrics.
const (
	SDC Metric = iota
	DUE
)

func (m Metric) String() string {
	if m == SDC {
		return "SDC"
	}
	return "DUE"
}

// parityTreeSlack is the slack (gate delays) needed for the unpipelined
// 32-bit predictor tree of Heuristic 1's PARITY() predicate.
const parityTreeSlack = 7

// chooseCell implements the paper's Heuristic 1: LEAP-DICE for flip-flops
// whose detected errors the attached recovery could not recover, parity
// when timing slack allows a 32-bit tree, and LEAP-DICE (or EDS, when the
// combination includes it) otherwise.
func (e *Engine) chooseCell(bit int, hasDICE, hasParity, hasEDS bool, rec recovery.Kind) CellKind {
	coreName := e.Kind.String()
	needHarden := false
	if rec == recovery.Flush || rec == recovery.RoB {
		needHarden = !recovery.Recoverable(rec, coreName, e.Space, bit)
	}
	if hasDICE && needHarden {
		return CellDICE
	}
	if hasParity && e.Pl.Slack[bit] >= parityTreeSlack {
		return CellParity
	}
	if hasEDS {
		return CellEDS
	}
	if hasParity && !hasDICE {
		return CellParity // pipelined parity (Fig 3) when DICE is absent
	}
	if hasDICE {
		return CellDICE
	}
	if hasParity {
		return CellParity
	}
	return CellNone
}

// HardenOptions parameterizes a selective-insertion pass.
type HardenOptions struct {
	DICE, Parity, EDS bool
	Recovery          recovery.Kind
	// FixedGamma multiplies the plan-dependent γ contribution: the high
	// layers' flip-flop and execution-time overheads.
	FixedGamma float64
	// Baseline error rates of the unprotected design (per sample).
	BaseSDCRate, BaseDUERate float64
}

// rates converts residual counts into per-sample rates.
func rates(res *inject.Result, r Residuals) (sdc, due float64) {
	n := float64(res.Totals.N)
	if n == 0 {
		return 0, 0
	}
	return r.SDC / n, r.DUE / n
}

// failCounts returns a flip-flop's measured SDC (OMM) and DUE (UT+Hang+ED)
// counts.
func failCounts(st inject.FFStats) (sdc, due float64) {
	return float64(st.OMM), float64(st.UT) + float64(st.Hang) + float64(st.ED)
}

// failKey returns a flip-flop's measured failure count under a metric.
func failKey(st inject.FFStats, m Metric) float64 {
	sdc, due := failCounts(st)
	if m == SDC {
		return sdc
	}
	return due
}

// failingOrder returns the flip-flops with a non-zero failure count under
// a metric, most failures first and ties in index order. It is the prefix
// of a stable descending sort of every flip-flop by that count: the
// flip-flops it leaves out all count zero, so that sort places them after
// these, in index order.
func failingOrder(res *inject.Result, m Metric) []int {
	var order []int
	for bit, st := range res.PerFF {
		if failKey(st, m) != 0 {
			order = append(order, bit)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(failKey(res.PerFF[b], m), failKey(res.PerFF[a], m))
	})
	return order
}

// SelectiveHarden performs the Fig 7 loop: repeatedly protect the most
// vulnerable unprotected flip-flop (per the target metric) with the
// Heuristic 1 cell until the target improvement is met. A +Inf target
// protects every flip-flop (the paper's "max" design point). The returned
// plan achieves the target under the final γ, or protects everything it
// can.
//
// Only flip-flops with measured errors under the metric can raise the
// measured improvement, so the loop walks failingOrder; when they are not
// enough, the remaining flip-flops follow in index order (an upper-bound
// design).
func (e *Engine) SelectiveHarden(res *inject.Result, opt HardenOptions, metric Metric, target float64) *Plan {
	plan := NewPlan(len(res.PerFF), opt.Recovery)
	if !opt.DICE && !opt.Parity && !opt.EDS {
		return plan
	}
	// Detection without recovery turns every detected flip into a DUE, so a
	// DUE-targeting pass must only use correcting cells (the paper's
	// observation that no DUE improvement is achievable with unconstrained
	// detection-only protection).
	if metric == DUE && opt.Recovery == recovery.None {
		if !opt.DICE {
			return plan // nothing useful to insert
		}
		opt.Parity, opt.EDS = false, false
	}
	if math.IsInf(target, 1) {
		for bit := range plan.Assign {
			plan.Assign[bit] = e.chooseCell(bit, opt.DICE, opt.Parity, opt.EDS, opt.Recovery)
		}
		return plan
	}

	// Exact target check: full residual evaluation with the implemented
	// parity grouping's γ contribution.
	achieved := func() bool {
		sdcImp, dueImp, _ := e.improvements(res, plan, e.implement(plan), opt)
		if metric == SDC {
			return sdcImp >= target
		}
		return dueImp >= target
	}

	// Greedy insertion with O(1) incremental residual tracking; the exact
	// evaluator confirms (γ included) whenever the cheap estimate says the
	// target is met, so the plan stops at the first sufficient flip-flop.
	totalN := float64(res.Totals.N)
	curSDC, curDUE := 0.0, 0.0
	for _, st := range res.PerFF {
		sdc, due := failCounts(st)
		curSDC += sdc
		curDUE += due
	}
	parityish := 0
	coreName := e.Kind.String()
	serDICE := serOf(CellDICE)
	applyDelta := func(bit int, cell CellKind) {
		st := res.PerFF[bit]
		sdc, due := failCounts(st)
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
		// approximate γ: recovery overhead plus ~0.3 added FFs per
		// parity/EDS cell (pipeline + error-indication flip-flops)
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

	for _, bit := range failingOrder(res, metric) {
		cell := e.chooseCell(bit, opt.DICE, opt.Parity, opt.EDS, opt.Recovery)
		plan.Assign[bit] = cell
		applyDelta(bit, cell)
		if quickMet() && achieved() {
			return plan
		}
	}
	if achieved() {
		return plan
	}
	// Target not reachable with measured-error flip-flops alone: extend to
	// every flip-flop (upper-bound design).
	since := 0
	for bit := range plan.Assign {
		if plan.Assign[bit] != CellNone {
			continue
		}
		plan.Assign[bit] = e.chooseCell(bit, opt.DICE, opt.Parity, opt.EDS, opt.Recovery)
		if since++; since >= 64 {
			since = 0
			if achieved() {
				return plan
			}
		}
	}
	return plan
}

// JointHarden meets an SDC and a DUE target simultaneously (paper Sec 3.1,
// Table 20): protect for SDC first, then keep protecting — flip-flops with
// DUE errors first, most errors first, then the rest in index order — until
// the DUE target is also met.
func (e *Engine) JointHarden(res *inject.Result, opt HardenOptions, target float64) *Plan {
	plan := e.SelectiveHarden(res, opt, SDC, target)
	if math.IsInf(target, 1) || !opt.DICE && !opt.Parity && !opt.EDS {
		return plan // every flip-flop it can protect is protected
	}
	dueMet := func() bool {
		_, dueImp, _ := e.improvements(res, plan, e.implement(plan), opt)
		return dueImp >= target
	}
	if dueMet() {
		return plan
	}
	since := 0
	protect := func(bit int) (met bool) {
		if plan.Assign[bit] != CellNone {
			return false
		}
		plan.Assign[bit] = e.chooseCell(bit, opt.DICE, opt.Parity, opt.EDS, opt.Recovery)
		if since++; since < 16 {
			return false
		}
		since = 0
		return dueMet()
	}
	for _, bit := range failingOrder(res, DUE) {
		if protect(bit) {
			return plan
		}
	}
	for bit := range plan.Assign {
		if protect(bit) {
			return plan
		}
	}
	return plan
}
