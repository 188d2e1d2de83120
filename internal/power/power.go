// Package power is the synthesis/power-analysis cost model: it converts
// resilience implementation plans (hardened-cell swaps, parity trees, EDS
// insertion, recovery hardware, checker hardware) into area, power, energy
// and execution-time overheads relative to the unprotected core — the role
// Synopsys Design Compiler/PrimeTime play in the paper's flow.
//
// Cost units: one baseline flip-flop has area 1 and power 1. A core's total
// area/power is derived from its flip-flop count and the fraction of the
// core budget that flip-flops occupy; those fractions are calibrated so the
// protect-everything corner cases land near the paper's Table 17 (LEAP-DICE
// "max": 9.3% area / 22.4% energy on the InO core, 6.5% / 9.4% on OoO).
package power

import (
	"slices"

	"clear/internal/circuitlib"
	"clear/internal/ino"
	"clear/internal/layout"
	"clear/internal/ooo"
	"clear/internal/parity"
)

// Model captures a core design's cost structure.
type Model struct {
	Name        string
	NumFFs      int
	FFAreaFrac  float64 // fraction of core area occupied by flip-flops
	FFPowerFrac float64 // fraction of core power consumed by flip-flops
	ClockMHz    float64
}

// InO returns the in-order core's cost model.
func InO() Model {
	return Model{
		Name:        "InO",
		NumFFs:      ino.Space().NumBits(),
		FFAreaFrac:  0.093,
		FFPowerFrac: 0.28,
		ClockMHz:    2000,
	}
}

// OoO returns the out-of-order core's cost model.
func OoO() Model {
	return Model{
		Name:        "OoO",
		NumFFs:      ooo.Space().NumBits(),
		FFAreaFrac:  0.065,
		FFPowerFrac: 0.117,
		ClockMHz:    600,
	}
}

// CoreAreaUnits is the core's total area in baseline-FF units.
func (m Model) CoreAreaUnits() float64 { return float64(m.NumFFs) / m.FFAreaFrac }

// CorePowerUnits is the core's total power in baseline-FF units.
func (m Model) CorePowerUnits() float64 { return float64(m.NumFFs) / m.FFPowerFrac }

// Gate-level cost constants, in baseline-FF units (28nm-class standard
// cells: a 2-input XOR is roughly 40% of a flip-flop's area).
const (
	xorArea  = 0.40
	xorPower = 0.27
	orArea   = 0.25
	orPower  = 0.12
	bufArea  = 0.35
	bufPower = 0.28
	// wire cost per FF-length of routing
	wireAreaPerLen  = 0.010
	wirePowerPerLen = 0.012
)

// Cost is a set of fractional overheads relative to the unprotected design
// (0.093 == 9.3%). Energy is derived: (1+Power)·(1+ExecTime)−1.
type Cost struct {
	Area     float64
	Power    float64
	ExecTime float64
}

// Energy returns the fractional energy overhead implied by power and
// execution-time overheads.
func (c Cost) Energy() float64 {
	return (1+c.Power)*(1+c.ExecTime) - 1
}

// Plus composes two overheads: area/power add, execution-time impacts
// compound.
func (c Cost) Plus(o Cost) Cost {
	return Cost{
		Area:     c.Area + o.Area,
		Power:    c.Power + o.Power,
		ExecTime: (1+c.ExecTime)*(1+o.ExecTime) - 1,
	}
}

// HardenFFs returns the cost of swapping flip-flops for library cells.
// counts maps cell type to the number of flip-flops implemented with it
// (unlisted flip-flops stay baseline). The terms are summed in FFType
// order: float addition is not associative, so summing in map iteration
// order would let three or more cell types cost differently from call to
// call.
func (m Model) HardenFFs(counts map[circuitlib.FFType]int) Cost {
	types := make([]circuitlib.FFType, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	slices.Sort(types)
	var dA, dP float64
	for _, t := range types {
		cell := circuitlib.Get(t)
		n := counts[t]
		dA += float64(n) * (cell.Area - 1)
		dP += float64(n) * (cell.Power - 1)
	}
	return Cost{
		Area:  dA / m.CoreAreaUnits(),
		Power: dP / m.CorePowerUnits(),
	}
}

// ParityCost returns the cost of a parity implementation plan: XOR trees,
// pipeline flip-flops, and routing.
func (m Model) ParityCost(g parity.Grouping, pl *layout.Placement) Cost {
	nx := float64(g.NumXORs())
	cg := float64(g.ConstGates())
	ef := float64(g.ErrorFFs())
	pf := float64(g.NumPipelineFFs())
	wl := g.WireLength(pl)
	dA := nx*xorArea + cg*orArea + (pf+ef)*1.0 + wl*wireAreaPerLen
	dP := nx*xorPower + cg*orPower + (pf+ef)*1.0 + wl*wirePowerPerLen
	return Cost{
		Area:  dA / m.CoreAreaUnits(),
		Power: dP / m.CorePowerUnits(),
	}
}

// EDSCost returns the cost of protecting bits with error-detection
// sequentials: the cell swap plus hold-fix delay buffers on short paths and
// the error-signal aggregation (OR tree) routed to the recovery module.
func (m Model) EDSCost(bits []int, pl *layout.Placement) Cost {
	cell := circuitlib.Get(circuitlib.EDS)
	n := float64(len(bits))
	// Hold buffers: EDS extends the hold window; paths with generous slack
	// need min-delay padding. The slack model marks roughly half the
	// flip-flops as needing one buffer, plus a second on the loosest.
	bufs := 0.0
	for _, b := range bits {
		if pl.Slack[b] > 8 {
			bufs++
		}
		if pl.Slack[b] > 20 {
			bufs++
		}
	}
	// OR-tree aggregation of error signals + routing to a central point.
	ors := n - 1
	if ors < 0 {
		ors = 0
	}
	wire := 0.0
	// routing estimated as mean distance to core center times fanin count
	if len(bits) > 0 {
		var cx, cy float64
		for _, b := range bits {
			cx += pl.X[b]
			cy += pl.Y[b]
		}
		cx /= n
		cy /= n
		for _, b := range bits {
			dx, dy := pl.X[b]-cx, pl.Y[b]-cy
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			wire += (dx + dy) * 0.25 // shared trunk routing discount
		}
	}
	dA := n*(cell.Area-1) + bufs*bufArea + ors*orArea + wire*wireAreaPerLen
	dP := n*(cell.Power-1) + bufs*bufPower + ors*orPower + wire*wirePowerPerLen
	return Cost{
		Area:  dA / m.CoreAreaUnits(),
		Power: dP / m.CorePowerUnits(),
	}
}

// ExtraFFCost converts a count of added flip-flops (checker state, shadow
// registers) into fractional cost.
func (m Model) ExtraFFCost(n int, logicAreaUnits, logicPowerUnits float64) Cost {
	return Cost{
		Area:  (float64(n) + logicAreaUnits) / m.CoreAreaUnits(),
		Power: (float64(n) + logicPowerUnits) / m.CorePowerUnits(),
	}
}
