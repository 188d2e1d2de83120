package core

import (
	"clear/internal/circuitlib"
	"clear/internal/inject"
	"clear/internal/parity"
	"clear/internal/power"
	"clear/internal/recovery"
	"clear/internal/stack"
	"clear/internal/technique"
)

// CellKind is the circuit/logic protection applied to one flip-flop.
type CellKind uint8

// Per-flip-flop protection choices.
const (
	CellNone CellKind = iota
	CellDICE
	CellLHL
	CellCtrlEco // LEAP-ctrl operating in economy mode
	CellCtrlRes // LEAP-ctrl operating in resilient mode
	CellParity
	CellEDS

	numCellKinds = iota // array length for per-kind tallies
)

// Plan is a concrete low-level implementation: a protection choice per
// flip-flop plus the attached hardware recovery.
type Plan struct {
	Assign   []CellKind
	Recovery recovery.Kind
}

// NewPlan returns an all-unprotected plan for n flip-flops.
func NewPlan(n int, rec recovery.Kind) *Plan {
	return &Plan{Assign: make([]CellKind, n), Recovery: rec}
}

// Residuals is the analytically composed outcome of a campaign under a
// plan: expected error counts in the protected design, per Sec 2.1
// semantics. Detection without recovery turns all errors in a protected
// flip-flop (even ones that would have vanished) into detected events.
type Residuals struct {
	SDC float64 // expected OMM count
	DUE float64 // expected UT+Hang+ED count
}

// Soft-error-rate ratios of the correcting cells, read once from the
// circuit library.
var (
	serLEAPDICE = circuitlib.Get(circuitlib.LEAPDICE).SERRatio
	serLHL      = circuitlib.Get(circuitlib.LHL).SERRatio
)

// serOf returns the soft-error-rate residual factor of a correcting cell.
func serOf(c CellKind) float64 {
	switch c {
	case CellDICE, CellCtrlRes:
		return serLEAPDICE
	case CellLHL:
		return serLHL
	}
	return 1
}

// recoverableBits returns, for each flip-flop of the engine's space,
// whether recovery k can replay an error detected in it
// (recovery.Recoverable). The tables are built once per engine.
func (e *Engine) recoverableBits(k recovery.Kind) []bool {
	e.recOnce.Do(func() {
		coreName := e.Kind.String()
		for k := range e.recBits {
			tab := make([]bool, e.Space.NumBits())
			for bit := range tab {
				tab[bit] = recovery.Recoverable(recovery.Kind(k), coreName, e.Space, bit)
			}
			e.recBits[k] = tab
		}
	})
	return e.recBits[k]
}

// ffProtector resolves a registered technique's FFProtector capability
// (nil when not registered or not a per-flip-flop technique).
func ffProtector(name string) technique.FFProtector {
	t, err := technique.Default().Lookup(name)
	if err != nil {
		return nil
	}
	p, _ := t.(technique.FFProtector)
	return p
}

// Evaluate composes per-flip-flop campaign statistics with a plan.
//
// The residual composition rules live on the registered techniques'
// FFProtector implementations (matching the paper's semantics):
//   - hardening cells scale every error class by the cell's SER ratio;
//   - parity/EDS with recovery that can recover the flip-flop suppress all
//     errors (detect + replay);
//   - parity/EDS without usable recovery detect every flip: SDC goes to
//     zero but every injected error becomes ED (a DUE);
//   - unprotected flip-flops contribute their measured counts.
//
// The LEAP-ctrl / LHL cell variants are plan-local alternatives of the
// LEAP-DICE technique and keep their SER-ratio math here.
func (e *Engine) Evaluate(res *inject.Result, plan *Plan) Residuals {
	var out Residuals
	var prot [numCellKinds]technique.FFProtector
	prot[CellDICE] = ffProtector(technique.NameLEAPDICE)
	prot[CellParity] = ffProtector(technique.NameParity)
	prot[CellEDS] = ffProtector(technique.NameEDS)
	// detects[c]: cell c detects without correcting, so the recovery
	// decides whether its detections are replayed
	var detects [numCellKinds]bool
	for c, p := range prot {
		detects[c] = p != nil && !p.Corrects()
	}
	recoverable := e.recoverableBits(plan.Recovery)
	for bit, st := range res.PerFF {
		sdc, due := failCounts(st)
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
				// technique unregistered out from under the plan: count the
				// flip-flop as unprotected rather than guessing
				out.SDC += sdc
				out.DUE += due
				continue
			}
			rs, rd := p.Residual(float64(st.N), sdc, due, detects[c] && recoverable[bit])
			out.SDC += rs
			out.DUE += rd
		}
	}
	return out
}

// BaseRate returns a campaign's per-sample error rate for a metric in the
// unprotected design (the Eq. 1 numerator; for DUE this is UT+Hang, as no
// detection technique is present in the baseline).
func BaseRate(r *inject.Result, m Metric) float64 {
	n := float64(r.Totals.N)
	if n == 0 {
		return 0
	}
	if m == SDC {
		return float64(r.Totals.SDC()) / n
	}
	return float64(r.Totals.UT+r.Totals.Hang) / n
}

// counts tallies plan cells by kind.
func (p *Plan) counts() [numCellKinds]int {
	var n [numCellKinds]int
	for _, c := range p.Assign {
		n[c]++
	}
	return n
}

// bitsOf returns the flip-flops assigned a given cell kind.
func (p *Plan) bitsOf(kind CellKind) []int {
	var out []int
	for bit, c := range p.Assign {
		if c == kind {
			out = append(out, bit)
		}
	}
	return out
}

// ParityGrouping forms the optimized parity implementation over the plan's
// parity-protected flip-flops.
func (e *Engine) ParityGrouping(p *Plan) parity.Grouping {
	bits := p.bitsOf(CellParity)
	if len(bits) == 0 {
		return parity.Grouping{}
	}
	return parity.Group(parity.OptimizedH, 16, e.Space, e.Pl, nil, bits)
}

// planImpl is what a plan's γ overhead and its cost both read: its cell
// counts and its parity grouping, formed once per evaluation.
type planImpl struct {
	counts   [numCellKinds]int
	grouping parity.Grouping
}

// implement tallies a plan's cells and forms its parity grouping.
func (e *Engine) implement(p *Plan) planImpl {
	im := planImpl{counts: p.counts()}
	if im.counts[CellParity] > 0 {
		im.grouping = e.ParityGrouping(p)
	}
	return im
}

// protected returns the number of flip-flops the plan protects.
func (im planImpl) protected() int {
	n := 0
	for _, k := range im.counts[CellNone+1:] {
		n += k
	}
	return n
}

// PlanCost returns the hardware cost of a plan: cell swaps, parity trees,
// EDS aggregation, and the recovery unit.
func (e *Engine) PlanCost(p *Plan) power.Cost {
	return e.planCost(p, e.implement(p))
}

// planCost is PlanCost of an implemented plan.
func (e *Engine) planCost(p *Plan, im planImpl) power.Cost {
	harden := map[circuitlib.FFType]int{}
	if n := im.counts[CellDICE]; n > 0 {
		harden[circuitlib.LEAPDICE] = n
	}
	if n := im.counts[CellLHL]; n > 0 {
		harden[circuitlib.LHL] = n
	}
	if n := im.counts[CellCtrlEco]; n > 0 {
		harden[circuitlib.LEAPCtrlEconomy] = n
	}
	if n := im.counts[CellCtrlRes]; n > 0 {
		harden[circuitlib.LEAPCtrlResilient] = n
	}
	cost := e.Model.HardenFFs(harden)
	if im.counts[CellParity] > 0 {
		cost = cost.Plus(e.Model.ParityCost(im.grouping, e.Pl))
	}
	if im.counts[CellEDS] > 0 {
		cost = cost.Plus(e.Model.EDSCost(p.bitsOf(CellEDS), e.Pl))
	}
	if p.Recovery != recovery.None {
		cost = cost.Plus(recovery.Cost(p.Recovery, e.Kind.String()))
	}
	return cost
}

// PlanFFOverhead returns the plan's γ flip-flop overhead: parity pipeline
// and error-indication flip-flops plus recovery buffers, relative to the
// core's flip-flop count.
func (e *Engine) PlanFFOverhead(p *Plan) float64 {
	return e.ffOverhead(p, e.implement(p))
}

// ffOverhead is PlanFFOverhead of an implemented plan.
func (e *Engine) ffOverhead(p *Plan, im planImpl) float64 {
	over := technique.RecoveryFFOverhead(p.Recovery, e.Kind.String())
	if g := im.grouping; len(g.Groups) > 0 {
		over += float64(g.NumPipelineFFs()+g.ErrorFFs()) / float64(e.Model.NumFFs)
	}
	if n := im.counts[CellEDS]; n > 0 {
		// EDS error aggregation registers
		over += float64(n/32+1) / float64(e.Model.NumFFs)
	}
	return over
}

// improvements evaluates an implemented plan on a campaign: its SDC and
// DUE improvements over opt's baseline rates, and the γ they include —
// opt's fixed γ scaled by the plan's own flip-flop overhead.
func (e *Engine) improvements(res *inject.Result, p *Plan, im planImpl, opt HardenOptions) (sdcImp, dueImp, gamma float64) {
	sdcR, dueR := rates(res, e.Evaluate(res, p))
	gamma = opt.FixedGamma * (1 + e.ffOverhead(p, im))
	return stack.Improvement(opt.BaseSDCRate, sdcR, gamma), stack.Improvement(opt.BaseDUERate, dueR, gamma), gamma
}
