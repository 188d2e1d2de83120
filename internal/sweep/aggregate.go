package sweep

import "math"

// Row is one combination aggregated across its benchmark cells: harmonic
// improvement means plus arithmetic cost means, matching how the paper
// averages per-benchmark designs.
type Row struct {
	Name    string
	SDCImp  float64
	DUEImp  float64
	Energy  float64
	Area    float64
	Met     bool // every cell met the target
	Benches int  // cells aggregated
	Failed  int  // cells whose evaluation errored (excluded from means)
}

// worseThanBaseInv is the reciprocal contributed by a non-positive
// "improvement" (a combination that left the benchmark no better — or
// worse — than baseline). It must be huge so the bad benchmark dominates
// the harmonic mean: a single worse-than-baseline cell drags the
// aggregated improvement to ~0 instead of vanishing from the average.
const worseThanBaseInv = 1e9

// Inv maps an improvement factor to its harmonic-mean reciprocal. +Inf (a
// fully protected benchmark, zero residual errors) contributes zero;
// non-positive or NaN improvements contribute worseThanBaseInv.
//
// The historical clearsweep helper mapped v <= 0 to 1e-9 — the same tiny
// reciprocal as near-perfect protection — so a combination that made a
// benchmark *worse* was reported as a near-infinite improvement. A bad
// cell must dominate the mean, not vanish from it.
func Inv(v float64) float64 {
	if math.IsInf(v, 1) {
		return 0
	}
	if math.IsNaN(v) || v <= 0 {
		return worseThanBaseInv
	}
	return 1 / v
}

// HarmonicImp folds a reciprocal sum over n cells back into an improvement
// factor: n/sum, +Inf when every cell was fully protected (sum == 0).
func HarmonicImp(invSum float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return float64(n) / invSum
}

// buildRows aggregates the cell grid into one ranked row per combination,
// names[ci] naming sw.Combos[ci]. Cells are visited in (combination, benchmark) index order, so the
// floating-point folds — and therefore the rows — are bit-identical for
// any worker count or completion order. nil cells (possible only after a
// canceled run) and failed cells are excluded from the means and counted
// in Failed/Benches instead.
func buildRows(sw Sweep, names []string, cells []*CellOutcome) []Row {
	nB := len(sw.Benches)
	rows := make([]Row, 0, len(sw.Combos))
	for ci, name := range names {
		row := Row{Name: name, Met: true}
		var sdcInv, dueInv, energy, area float64
		for bi := 0; bi < nB; bi++ {
			co := cells[ci*nB+bi]
			if co == nil {
				row.Met = false
				continue
			}
			if co.Err != "" {
				row.Failed++
				row.Met = false
				continue
			}
			sdcInv += Inv(float64(co.SDCImp))
			dueInv += Inv(float64(co.DUEImp))
			energy += float64(co.Energy)
			area += float64(co.Area)
			row.Met = row.Met && co.TargetMet
			row.Benches++
		}
		if row.Benches > 0 {
			fn := float64(row.Benches)
			row.SDCImp = HarmonicImp(sdcInv, row.Benches)
			row.DUEImp = HarmonicImp(dueInv, row.Benches)
			row.Energy = energy / fn
			row.Area = area / fn
		} else {
			row.SDCImp, row.DUEImp = math.NaN(), math.NaN()
			row.Met = false
		}
		rows = append(rows, row)
	}
	rankRows(rows)
	return rows
}
