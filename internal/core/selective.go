package core

import (
	"fmt"
	"sort"
	"strings"

	"clear/internal/inject"
)

// Structure-granularity selective hardening: instead of the flip-flop-level
// Fig 7 loop (SelectiveHarden), protect whole pipeline structures — the
// units an attribution analysis ranks as most vulnerable. Hardening at
// structure granularity is what a designer can actually floorplan (swap the
// ROB's latch macro, parity-protect the store queue), and the resulting
// cost points let the sweep check whether unit-level insertion stays on or
// near the flip-flop-level Pareto frontier.

// SelectiveHardening protects every flip-flop of the topK most vulnerable
// functional units — ranked by the unit's summed failing-outcome count
// under the metric (SDC: OMM; DUE: UT+Hang+ED), ties broken by unit name —
// with the Heuristic 1 cell choice used by SelectiveHarden. It returns the
// evaluated cost point in the (improvement, energy) plane, the concrete
// plan, and the protected unit names in rank order. A topK at or beyond the
// unit count protects the whole core; topK <= 0 protects nothing (the
// baseline point, improvement 1 at the recovery unit's energy).
func (e *Engine) SelectiveHardening(res *inject.Result, opt HardenOptions, metric Metric, topK int) (ParetoPoint, *Plan, []string) {
	// Rank units by summed vulnerability under the metric.
	type unitVuln struct {
		name string
		fail float64
	}
	byUnit := map[string]*unitVuln{}
	units := e.Space.Units()
	for _, u := range units {
		byUnit[u] = &unitVuln{name: u}
	}
	for bit, st := range res.PerFF {
		u := byUnit[e.Space.UnitOf(bit)]
		if u == nil {
			continue
		}
		if metric == SDC {
			u.fail += float64(st.OMM)
		} else {
			u.fail += float64(st.UT) + float64(st.Hang) + float64(st.ED)
		}
	}
	ranked := make([]unitVuln, 0, len(units))
	for _, u := range units {
		ranked = append(ranked, *byUnit[u])
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].fail != ranked[j].fail {
			return ranked[i].fail > ranked[j].fail
		}
		return ranked[i].name < ranked[j].name
	})
	if topK < 0 {
		topK = 0
	}
	if topK > len(ranked) {
		topK = len(ranked)
	}
	chosen := make(map[string]bool, topK)
	names := make([]string, 0, topK)
	for _, u := range ranked[:topK] {
		chosen[u.name] = true
		names = append(names, u.name)
	}

	// Protect every flip-flop of the chosen units with the Heuristic 1 cell.
	plan := NewPlan(len(res.PerFF), opt.Recovery)
	if opt.DICE || opt.Parity || opt.EDS {
		for bit := range plan.Assign {
			if chosen[e.Space.UnitOf(bit)] {
				plan.Assign[bit] = e.chooseCell(bit, opt.DICE, opt.Parity, opt.EDS, opt.Recovery)
			}
		}
	}

	im := e.implement(plan)
	imp, dueImp, _ := e.improvements(res, plan, im, opt)
	if metric == DUE {
		imp = dueImp
	}
	pt := ParetoPoint{
		Name:        fmt.Sprintf("selective top-%d (%s)", topK, strings.Join(names, "+")),
		Improvement: imp,
		Energy:      e.planCost(plan, im).Energy(),
	}
	return pt, plan, names
}
