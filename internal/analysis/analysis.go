// Package analysis implements the application-benchmark-dependence study
// (paper Sec 4): train/validate splits over the benchmark suite, validated
// improvements of trained designs (Tables 23-26), the LHL augmentation
// that restores resilience targets for unseen applications, and the
// subset-similarity analysis of Eq. 2 (Table 27).
package analysis

import (
	"math"
	"sort"

	"clear/internal/bench"
	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/stack"
	"clear/internal/stats"
)

// Aggregate sums per-flip-flop campaign statistics across benchmarks. The
// per-flip-flop counters saturate at their uint16 bound when many merged
// campaigns exceed it (inject.FFStats.AddSat) instead of wrapping around.
// Detection-latency sums and the nominal cycle/retirement totals are
// carried through, so aggregated mean detection latency and per-cycle
// normalizations read correctly (they used to silently sum to zero).
func Aggregate(results []*inject.Result) *inject.Result {
	if len(results) == 0 {
		return nil
	}
	agg := &inject.Result{PerFF: make([]inject.FFStats, len(results[0].PerFF))}
	for _, r := range results {
		for i, st := range r.PerFF {
			agg.PerFF[i].AddSat(st)
		}
		agg.Totals.Merge(r.Totals)
		agg.DetLatSum += r.DetLatSum
		agg.DetN += r.DetN
		agg.NomCycles += r.NomCycles
		agg.NomRet += r.NomRet
	}
	return agg
}

// Rates returns SDC and DUE error rates per sample of a campaign result.
func Rates(r *inject.Result) (sdc, due float64) {
	n := float64(r.Totals.N)
	if n == 0 {
		return 0, 0
	}
	return float64(r.Totals.SDC()) / n, float64(r.Totals.UT+r.Totals.Hang) / n
}

// Study holds the per-benchmark baseline campaigns of one core.
type Study struct {
	Engine  *core.Engine
	Benches []*bench.Benchmark
	Base    []*inject.Result
}

// NewStudy loads baseline campaigns for every benchmark of the engine's
// core.
func NewStudy(e *core.Engine) (*Study, error) {
	s := &Study{Engine: e, Benches: e.Benchmarks()}
	for _, b := range s.Benches {
		r, err := e.Base(b)
		if err != nil {
			return nil, err
		}
		s.Base = append(s.Base, r)
	}
	return s, nil
}

// pick returns the aggregate result over the benchmark subset.
func (s *Study) pick(idx []int) *inject.Result {
	var rs []*inject.Result
	for _, i := range idx {
		rs = append(rs, s.Base[i])
	}
	return Aggregate(rs)
}

// TrainValidate is one split's outcome: the improvement the trained design
// promises on the training set, and what it actually delivers on the
// validation set.
type TrainValidate struct {
	Train    float64
	Validate float64
}

// TrainedDesign builds a selective plan from the training subset at the
// given target and evaluates it on both subsets.
func (s *Study) TrainedDesign(trainIdx, valIdx []int, opt core.HardenOptions,
	metric core.Metric, target float64) (TrainValidate, *core.Plan) {
	trainAgg := s.pick(trainIdx)
	valAgg := s.pick(valIdx)
	tSDC, tDUE := Rates(trainAgg)
	opt.BaseSDCRate, opt.BaseDUERate = tSDC, tDUE
	plan := s.Engine.SelectiveHarden(trainAgg, opt, metric, target)

	imp := func(agg *inject.Result) float64 {
		base := core.BaseRate(agg, metric)
		resid := s.Engine.Evaluate(agg, plan)
		var rate float64
		if metric == core.SDC {
			rate = resid.SDC / float64(agg.Totals.N)
		} else {
			rate = resid.DUE / float64(agg.Totals.N)
		}
		gamma := opt.FixedGamma * (1 + s.Engine.PlanFFOverhead(plan))
		return stack.Improvement(base, rate, gamma)
	}
	return TrainValidate{Train: imp(trainAgg), Validate: imp(valAgg)}, plan
}

// ApplyLHL returns a copy of the plan with every unprotected flip-flop
// implemented as Light Hardened LEAP — the paper's Sec 4 mitigation for
// benchmark dependence.
func ApplyLHL(plan *core.Plan) *core.Plan {
	out := &core.Plan{Assign: append([]core.CellKind{}, plan.Assign...), Recovery: plan.Recovery}
	for i, c := range out.Assign {
		if c == core.CellNone {
			out.Assign[i] = core.CellLHL
		}
	}
	return out
}

// EvaluatePlan computes the improvement a fixed plan delivers on a
// benchmark subset.
func (s *Study) EvaluatePlan(plan *core.Plan, idx []int, metric core.Metric, fixedGamma float64) float64 {
	agg := s.pick(idx)
	base := core.BaseRate(agg, metric)
	resid := s.Engine.Evaluate(agg, plan)
	var rate float64
	if metric == core.SDC {
		rate = resid.SDC / float64(agg.Totals.N)
	} else {
		rate = resid.DUE / float64(agg.Totals.N)
	}
	gamma := fixedGamma * (1 + s.Engine.PlanFFOverhead(plan))
	return stack.Improvement(base, rate, gamma)
}

// Splits generates n deterministic train/validate partitions choosing k
// training benchmarks from the SPEC subset (the paper trains on 4 of 11
// SPEC benchmarks).
func (s *Study) Splits(n, k int, seed int64) (trains, validates [][]int) {
	// SPEC indices only for training, validation = remaining SPEC
	var specIdx []int
	for i, b := range s.Benches {
		if b.Suite == "SPEC" {
			specIdx = append(specIdx, i)
		}
	}
	rng := stats.New(seed)
	for i := 0; i < n; i++ {
		tr, va := stats.SampleSplit(len(specIdx), k, rng)
		var trainIdx, valIdx []int
		for _, t := range tr {
			trainIdx = append(trainIdx, specIdx[t])
		}
		for _, v := range va {
			valIdx = append(valIdx, specIdx[v])
		}
		trains = append(trains, trainIdx)
		validates = append(validates, valIdx)
	}
	return trains, validates
}

// HighLevelTV evaluates a standalone high-level technique's trained vs
// validated improvement (Tables 23/24): the technique's improvement
// measured on the training subset vs the validation subset.
type HighLevelTV struct {
	Technique     string
	Train         float64
	Validate      float64
	Underestimate float64 // (validate-train)/train
	PValue        float64
}

// TechniqueTV computes train/validate improvements of a measured technique
// campaign set (per-benchmark) against the matching baselines.
func TechniqueTV(name string, baseByBench, techByBench []*inject.Result,
	gammaByBench []float64, metric core.Metric,
	trains, validates [][]int, seed int64) HighLevelTV {
	imp := func(idx []int) float64 {
		// the split's totals, summed as Aggregate sums them
		base := &inject.Result{}
		var tech inject.Counts
		for _, i := range idx {
			base.Totals.Merge(baseByBench[i].Totals)
			tech.Merge(techByBench[i].Totals)
		}
		origRate := core.BaseRate(base, metric)
		var newRate float64
		n := float64(tech.N)
		if metric == core.SDC {
			newRate = float64(tech.SDC()) / n
		} else {
			newRate = float64(tech.DUE()) / n
		}
		g := 0.0
		for _, i := range idx {
			g += gammaByBench[i]
		}
		g /= float64(len(idx))
		return stack.Improvement(origRate, newRate, g)
	}
	var diffs []float64
	var trainSum, valSum float64
	infs := 0
	for k := range trains {
		tr := imp(trains[k])
		va := imp(validates[k])
		if math.IsInf(tr, 1) || math.IsInf(va, 1) {
			// the technique left zero residual errors on this split
			infs++
			continue
		}
		trainSum += tr
		valSum += va
		diffs = append(diffs, va-tr)
	}
	n := float64(len(diffs))
	out := HighLevelTV{Technique: name}
	if n == 0 {
		if infs > 0 {
			// every split saturated: the technique's improvement exceeds
			// what this campaign's sampling can resolve, on training and
			// validation alike
			out.Train = math.Inf(1)
			out.Validate = math.Inf(1)
			out.PValue = 1
		}
		return out
	}
	out.Train = trainSum / n
	out.Validate = valSum / n
	if out.Train != 0 {
		out.Underestimate = (out.Validate - out.Train) / out.Train
	}
	out.PValue = stats.PairedPermutationP(diffs, 2000, stats.New(seed))
	return out
}

// SubsetSimilarity implements Table 27: per benchmark, rank flip-flops by
// decreasing SDC+DUE vulnerability and split into deciles; the similarity
// of decile d across benchmarks is Eq. 2's intersection-over-union.
func (s *Study) SubsetSimilarity() []float64 {
	nBits := len(s.Base[0].PerFF)
	decilesPerBench := make([][][]int, len(s.Base))
	for bi, r := range s.Base {
		_ = bi
		order := make([]int, nBits)
		for i := range order {
			order[i] = i
		}
		vuln := func(bit int) float64 {
			st := r.PerFF[bit]
			if st.N == 0 {
				return 0
			}
			return (float64(st.OMM) + float64(st.UT) + float64(st.Hang) + float64(st.ED)) / float64(st.N)
		}
		// Ties are broken by a benchmark-independent hash: tied flip-flops
		// are genuinely indistinguishable (the always-vanish tail is the
		// SAME set in every benchmark), so their order must agree across
		// benchmarks; a per-benchmark order would destroy the tail's true
		// similarity, while a shared one cannot invent similarity between
		// flip-flops whose measured vulnerabilities differ.
		tie := func(bit int) uint32 {
			h := uint32(bit) * 2654435761
			h ^= h >> 15
			return h * 2246822519
		}
		sort.SliceStable(order, func(a, b int) bool {
			va, vb := vuln(order[a]), vuln(order[b])
			if va != vb {
				return va > vb
			}
			return tie(order[a]) < tie(order[b])
		})
		deciles := make([][]int, 10)
		for d := 0; d < 10; d++ {
			lo := d * nBits / 10
			hi := (d + 1) * nBits / 10
			deciles[d] = order[lo:hi]
		}
		decilesPerBench[bi] = deciles
	}
	out := make([]float64, 10)
	for d := 0; d < 10; d++ {
		sets := make([][]int, len(decilesPerBench))
		for bi := range decilesPerBench {
			sets[bi] = decilesPerBench[bi][d]
		}
		out[d] = stats.Similarity(sets)
	}
	return out
}
