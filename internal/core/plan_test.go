package core

import (
	"math"
	"testing"

	"clear/internal/inject"
	"clear/internal/recovery"
)

// TestPlanCostDeterministic pins that a plan mixing four cell-swap kinds,
// each on every 7th flip-flop, costs the same bits on every call. Summing the swaps in map iteration
// order gave such a plan several different (Area, Power) bit patterns over
// a few hundred calls.
func TestPlanCostDeterministic(t *testing.T) {
	e := NewEngine(inject.InO)
	plan := NewPlan(e.Space.NumBits(), recovery.None)
	kinds := []CellKind{CellDICE, CellLHL, CellCtrlEco, CellCtrlRes}
	for bit := range plan.Assign {
		if k := bit % 7; k < len(kinds) {
			plan.Assign[bit] = kinds[k]
		}
	}
	type bits struct{ area, power uint64 }
	seen := map[bits]bool{}
	for i := 0; i < 500; i++ {
		c := e.PlanCost(plan)
		seen[bits{math.Float64bits(c.Area), math.Float64bits(c.Power)}] = true
	}
	if len(seen) != 1 {
		t.Fatalf("PlanCost returned %d distinct (Area, Power) bit patterns over 500 calls, want 1", len(seen))
	}
}
