package core

import (
	"math"

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
	needHarden := false
	if rec == recovery.Flush || rec == recovery.RoB {
		needHarden = !e.recoverableBits(rec)[bit]
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

// failCount returns a flip-flop's measured failure count under a metric:
// failCounts' SDC or DUE count, as an integer.
func failCount(st inject.FFStats, m Metric) int {
	if m == SDC {
		return int(st.OMM)
	}
	return int(st.UT) + int(st.Hang) + int(st.ED)
}

// failingOrder returns the flip-flops with a non-zero failure count under
// a metric, most failures first and ties in index order. It is the prefix
// of a stable descending sort of every flip-flop by that count: the
// flip-flops it leaves out all count zero, so that sort places them after
// these, in index order. The counts are integers no larger than a
// flip-flop's sample count, so a counting sort gives that order in linear
// time.
func failingOrder(res *inject.Result, m Metric) []int {
	maxCount := 0
	for _, st := range res.PerFF {
		maxCount = max(maxCount, failCount(st, m))
	}
	// next[c] is the next slot of the flip-flops counting c: after every
	// flip-flop with a higher count and every earlier one counting c.
	next := make([]int, maxCount+1)
	for _, st := range res.PerFF {
		next[failCount(st, m)]++
	}
	failing := 0
	for c := maxCount; c > 0; c-- {
		next[c], failing = failing, failing+next[c]
	}
	order := make([]int, failing)
	for bit, st := range res.PerFF {
		if c := failCount(st, m); c > 0 {
			order[next[c]] = bit
			next[c]++
		}
	}
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
	plan, _, _ := e.selectiveHarden(res, opt, metric, target)
	return plan
}

// selectiveHarden is SelectiveHarden returning as well the implementation
// of the returned plan when it has one at hand: the memoized max plan's
// (maxPlan), or the one its last exact check formed. ok reports whether im
// is that implementation.
func (e *Engine) selectiveHarden(res *inject.Result, opt HardenOptions, metric Metric, target float64) (plan *Plan, im planImpl, ok bool) {
	plan = NewPlan(len(res.PerFF), opt.Recovery)
	if !opt.DICE && !opt.Parity && !opt.EDS {
		return plan, im, false
	}
	// Detection without recovery turns every detected flip into a DUE, so a
	// DUE-targeting pass must only use correcting cells (the paper's
	// observation that no DUE improvement is achievable with unconstrained
	// detection-only protection).
	if metric == DUE && opt.Recovery == recovery.None {
		if !opt.DICE {
			return plan, im, false // nothing useful to insert
		}
		opt.Parity, opt.EDS = false, false
	}
	if math.IsInf(target, 1) {
		mp := e.maxPlan(opt, len(plan.Assign))
		copy(plan.Assign, mp.assign)
		return plan, mp.im, true
	}

	// Exact target check: full residual evaluation with the implemented
	// parity grouping's γ contribution. im keeps the implementation it
	// formed.
	achieved := func() bool {
		im = e.implement(plan)
		sdcImp, dueImp, _ := e.improvements(res, plan, im, opt)
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
	recoverable := e.recoverableBits(plan.Recovery)
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
			if recoverable[bit] {
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
			return plan, im, true
		}
	}
	if achieved() {
		return plan, im, true
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
				return plan, im, true
			}
		}
	}
	// since is zero when no flip-flop was protected after the last check
	return plan, im, since == 0
}

// maxPlanKey is what a "max" plan (a +Inf target) depends on besides the
// engine: Heuristic 1's cell for each flip-flop is a function of the bit
// and the pass options alone.
type maxPlanKey struct {
	dice, parity, eds bool
	rec               recovery.Kind
	n                 int // flip-flops
}

// maxPlanEntry is a memoized max plan's cells and implementation, shared
// read-only by every pass that asks for it.
type maxPlanEntry struct {
	assign []CellKind
	im     planImpl
}

// maxPlan returns the max plan of n flip-flops under pass options opt
// (after selectiveHarden's DUE adjustment) and its implementation, formed
// once per engine and key: at most 8 option masks × 5 recovery kinds.
func (e *Engine) maxPlan(opt HardenOptions, n int) *maxPlanEntry {
	key := maxPlanKey{opt.DICE, opt.Parity, opt.EDS, opt.Recovery, n}
	e.mu.Lock()
	mp, ok := e.maxPlans[key]
	e.mu.Unlock()
	if ok {
		return mp
	}
	plan := NewPlan(n, opt.Recovery)
	for bit := range plan.Assign {
		plan.Assign[bit] = e.chooseCell(bit, opt.DICE, opt.Parity, opt.EDS, opt.Recovery)
	}
	mp = &maxPlanEntry{assign: plan.Assign, im: e.implement(plan)}
	// Two passes that miss at once form identical entries; keep the first.
	e.mu.Lock()
	if prev, ok := e.maxPlans[key]; ok {
		mp = prev
	} else {
		e.maxPlans[key] = mp
	}
	e.mu.Unlock()
	return mp
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
