package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"clear/internal/bench"
	"clear/internal/inject"
	"clear/internal/recovery"
)

// designPoint is one (metric, target) point of a sweep.
type designPoint struct {
	metric Metric
	target float64
}

// outcomeBits renders an Outcome's fields other than TargetMet as exact
// bit patterns.
func outcomeBits(o Outcome) [7]uint64 {
	return [7]uint64{
		math.Float64bits(o.SDCImp), math.Float64bits(o.DUEImp), math.Float64bits(o.Gamma),
		math.Float64bits(o.Cost.Area), math.Float64bits(o.Cost.Power), math.Float64bits(o.Cost.ExecTime),
		uint64(o.Protected),
	}
}

// TestPlanComboReuseMatchesFresh checks what a cell reuses — its tag,
// active techniques, the engine's recoverability tables, the memoized max
// plans, and the implementation of the last exact check — against an
// evaluation that reuses none of it. On one benchmark at one sample per
// flip-flop, for every enumerated combination of both cores, and LEAP-DICE
// with each recovery the core has (pairings the enumeration leaves out but
// Tables 19–21 evaluate, and the only ones whose max plan depends on the
// recovery), at SDC 5×, 50× and +Inf and DUE 50× and +Inf, PlanCombo must
// return the plan the
// reference Heuristic 1 (harden_ref_test.go) forms, and its Outcome must
// equal, bit for bit, what OutcomeForPlan computes anew on that plan
// (TargetMet aside: OutcomeForPlan evaluates at +Inf). A second engine
// visiting the cells in reverse order must return the same outcomes, so no
// memo depends on the order cells arrive in.
func TestPlanComboReuseMatchesFresh(t *testing.T) {
	points := []designPoint{{SDC, 5}, {SDC, 50}, {SDC, math.Inf(1)}, {DUE, 50}, {DUE, math.Inf(1)}}
	b := bench.ByName("inner_product")
	for _, kind := range []inject.CoreKind{inject.InO, inject.OoO} {
		t.Run(kind.String(), func(t *testing.T) {
			newEngine := func() *Engine {
				e := NewEngine(kind)
				e.SamplesBase, e.SamplesTech = 1, 1
				return e
			}
			type cell struct {
				c  Combo
				pt designPoint
			}
			combos := Enumerate(kind)
			for mask := 1; mask < 8; mask += 2 {
				for _, rec := range hardenRecoveries {
					if rec != recovery.None && recovery.Valid(rec, kind.String()) {
						combos = append(combos, Combo{DICE: true, Parity: mask&2 != 0, EDS: mask&4 != 0, Recovery: rec})
					}
				}
			}
			var cells []cell
			for _, pt := range points {
				for _, c := range combos {
					cells = append(cells, cell{c, pt})
				}
			}
			name := func(cl cell) string {
				return fmt.Sprintf("%s %v@%v", cl.c.Name(), cl.pt.metric, cl.pt.target)
			}

			e := newEngine()
			outs := make([]Outcome, len(cells))
			for i, cl := range cells {
				out, plan, err := e.PlanCombo(b, cl.c, cl.pt.metric, cl.pt.target)
				if err != nil {
					t.Fatalf("%s: %v", name(cl), err)
				}
				in, err := e.comboInputs(b, cl.c)
				if err != nil {
					t.Fatalf("%s: %v", name(cl), err)
				}
				ref := e.refSelectiveHarden(in.techRes, in.opt, cl.pt.metric, cl.pt.target)
				if plan.Recovery != ref.Recovery || !slices.Equal(plan.Assign, ref.Assign) {
					t.Fatalf("%s: plan protects %d flip-flops, reference plan %d",
						name(cl), protectedCount(plan), protectedCount(ref))
				}
				fresh, err := e.OutcomeForPlan(b, cl.c, plan)
				if err != nil {
					t.Fatalf("%s: %v", name(cl), err)
				}
				if outcomeBits(out) != outcomeBits(fresh) {
					t.Fatalf("%s: PlanCombo %+v, OutcomeForPlan on its plan %+v", name(cl), out, fresh)
				}
				outs[i] = out
			}

			rev := newEngine()
			for i := len(cells) - 1; i >= 0; i-- {
				cl := cells[i]
				out, err := rev.EvalCombo(b, cl.c, cl.pt.metric, cl.pt.target)
				if err != nil {
					t.Fatalf("%s: %v", name(cl), err)
				}
				if outcomeBits(out) != outcomeBits(outs[i]) || out.TargetMet != outs[i].TargetMet {
					t.Fatalf("%s: in reverse order %+v, in order %+v", name(cl), out, outs[i])
				}
			}
		})
	}
}

// TestMaxPlansConcurrent forms the max plans and recoverability tables of
// one fresh engine from four goroutines at once, over every option mask,
// recovery kind and metric: each pass must return the reference plan and
// the reference plan's cost through the shared implementation, whichever
// goroutine formed it.
func TestMaxPlansConcurrent(t *testing.T) {
	e := NewEngine(inject.InO)
	res := synthCampaign(e, 0xC0C0, profileSparse)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for mask := 1; mask < 8; mask++ {
				for _, rec := range hardenRecoveries {
					opt := hardenOptions(res, mask, rec, 1)
					for _, m := range []Metric{SDC, DUE} {
						hc := hardenCase{opt: opt, metric: m, target: math.Inf(1)}
						plan, im, ok := e.selectiveHarden(res, opt, m, math.Inf(1))
						if !ok {
							im = e.implement(plan)
						}
						ref := e.refSelectiveHarden(res, opt, m, math.Inf(1))
						if !slices.Equal(plan.Assign, ref.Assign) {
							t.Errorf("%s: plan differs from the reference", hc)
							return
						}
						if got, want := e.planCost(plan, im), e.refPlanCost(ref); got != want {
							t.Errorf("%s: cost %+v, reference %+v", hc, got, want)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkEvalCombo evaluates every in-order combination at sweep-warm's
// seven design points on one benchmark, at one sample per flip-flop, and
// reports the time per cell: the in-package twin of clearbench's
// sweep-warm cell cost. Each iteration takes a fresh engine and loads its
// campaigns and execution overheads before the timer starts, so it times
// the cells' arithmetic alone, per-engine tables and memos included.
func BenchmarkEvalCombo(b *testing.B) {
	points := []designPoint{
		{SDC, 2}, {SDC, 5}, {SDC, 50}, {SDC, math.Inf(1)},
		{DUE, 2}, {DUE, 50}, {DUE, math.Inf(1)},
	}
	bm := bench.ByName("inner_product")
	combos := Enumerate(inject.InO)
	cells := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine(inject.InO)
		e.SamplesBase, e.SamplesTech = 1, 1
		for _, c := range combos {
			if _, err := e.Campaign(bm, c.Variant); err != nil {
				b.Fatal(err)
			}
			if _, err := e.ExecOverhead(bm, c.Variant); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for _, pt := range points {
			for _, c := range combos {
				if _, err := e.EvalCombo(bm, c, pt.metric, pt.target); err != nil {
					b.Fatal(err)
				}
				cells++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
}
