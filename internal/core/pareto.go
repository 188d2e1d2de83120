package core

import "sort"

// ParetoPoint is one evaluated design in the (improvement, energy) plane.
type ParetoPoint struct {
	Name        string
	Improvement float64
	Energy      float64
}

// ParetoFrontier returns the non-dominated subset: points for which no
// other point has both higher (or equal) improvement and lower (or equal)
// energy. The result is sorted by increasing improvement; it is the bound
// region of the paper's Figs 9/10 — a new technique must lie on or below
// this curve to be competitive (Sec 5).
func ParetoFrontier(points []ParetoPoint) []ParetoPoint {
	if len(points) == 0 {
		return nil
	}
	sorted := append([]ParetoPoint{}, points...)
	// sort by improvement descending, energy ascending
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Improvement != sorted[j].Improvement {
			return sorted[i].Improvement > sorted[j].Improvement
		}
		return sorted[i].Energy < sorted[j].Energy
	})
	var frontier []ParetoPoint
	bestEnergy := sorted[0].Energy + 1
	for _, p := range sorted {
		if p.Energy < bestEnergy {
			frontier = append(frontier, p)
			bestEnergy = p.Energy
		}
	}
	// ascending improvement for presentation
	sort.Slice(frontier, func(i, j int) bool {
		return frontier[i].Improvement < frontier[j].Improvement
	})
	return frontier
}
