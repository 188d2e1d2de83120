package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"clear/internal/analysis"
	"clear/internal/bench"
	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/prog"
	"clear/internal/sweep"
)

// workload is one set of inputs the benchmark runs; the package doc says
// why each exists. iterate runs one independent iteration and records its
// outputs and latencies. setup, when set, prepares a campaign cache that
// every iteration reads; without it every iteration starts from an empty
// cache.
type workload struct {
	name    string
	unit    string   // what work_per_s counts: "injections" or "cells"
	tail    float64  // the task-latency quantile the report prints beside the median
	benches []string // nil: the whole suite of the core a campaign runs on
	setup   func(r *run) error
	iterate func(r *run, it *iter) error
}

var workloads = []*workload{
	{name: "campaign-ino", unit: "injections", tail: 0.90, iterate: campaignIno},
	{name: "campaign-ooo", unit: "injections", tail: 0.90, iterate: campaignOoO},
	{name: "sweep-cold", unit: "injections", tail: 0.99, benches: sweepBenches, iterate: sweepCold},
	{name: "sweep-warm", unit: "cells", tail: 0.99, benches: sweepBenches, setup: sweepWarmSetup, iterate: sweepWarm},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	attribSamples = 2    // samples per flip-flop of campaign-ino's attribution campaigns
	zScore        = 1.96 // 95% intervals of the unit ranking, as cmd/analyze prints them
	sweepWorkers  = 2    // concurrent cells of every sweep
)

// sweepBenches are the benchmarks of both sweep workloads.
var sweepBenches = []string{"gzip", "inner_product", "fft"}

// warmPoints are sweep-warm's design points; sweep-cold and sweep-warm's
// setup run the SDC 50x point.
var warmPoints = []struct {
	metric core.Metric
	target float64
}{
	{core.SDC, 2}, {core.SDC, 5}, {core.SDC, 50}, {core.SDC, math.Inf(1)},
	{core.DUE, 2}, {core.DUE, 50}, {core.DUE, math.Inf(1)},
}

// quickBench and quickCombos size the -quick mode: one benchmark (it runs
// on both cores) and the first 24 combinations of the enumeration.
const (
	quickBench  = "inner_product"
	quickCombos = 24
)

// benchesFor returns the workload's benchmark list.
func (r *run) benchesFor(kind inject.CoreKind) ([]*bench.Benchmark, error) {
	if r.quick {
		return []*bench.Benchmark{bench.ByName(quickBench)}, nil
	}
	if r.wl.benches != nil {
		var out []*bench.Benchmark
		for _, n := range r.wl.benches {
			b := bench.ByName(n)
			if b == nil {
				return nil, fmt.Errorf("unknown benchmark %q", n)
			}
			out = append(out, b)
		}
		return out, nil
	}
	if kind == inject.OoO {
		return bench.ForOoO(), nil
	}
	return bench.All(), nil
}

// newEngine returns a fresh engine at the run's seed and remembers it, so
// the iteration's counters can be read from it afterwards.
func (r *run) newEngine(it *iter, kind inject.CoreKind) *core.Engine {
	var e *core.Engine
	r.call(it.span, "core.NewEngine", attrs{Core: kind.String()}, func(int) { e = core.NewEngine(kind) })
	e.Seed = r.seed
	it.engines = append(it.engines, e)
	return e
}

func coreAttrs(e *core.Engine, b *bench.Benchmark, v core.Variant) attrs {
	model := e.FaultModel
	if model == "" {
		model = inject.DefaultModel
	}
	return attrs{Bench: b.Name, Core: e.Kind.String(), Tag: v.Tag(), Model: model, Hooked: v.DFC || v.Monitor}
}

// campaignIno: for every InO benchmark, the base campaign at the engine's
// default sampling, then an attribution campaign through the workload's
// injector with a record sink, then the unit and instruction rankings. One
// benchmark's whole flow is a task.
func campaignIno(r *run, it *iter) error {
	e := r.newEngine(it, inject.InO)
	benches, err := r.benchesFor(inject.InO)
	if err != nil {
		return err
	}
	for _, b := range benches {
		t0 := time.Now()
		r.inoFlow(it, e, b)
		it.task(time.Since(t0))
	}
	return nil
}

func (r *run) inoFlow(it *iter, e *core.Engine, b *bench.Benchmark) {
	a := coreAttrs(e, b, core.Variant{})
	it.attempted += 2 // the base and the attribution campaign
	var p *prog.Program
	var err error
	r.call(it.span, "core.Engine.BuildProgram", a, func(int) { p, err = e.BuildProgram(b, core.Variant{}) })
	if it.fail(err) {
		return
	}
	var base *inject.Result
	r.call(it.span, "core.Engine.Base", a, func(int) { base, err = e.Base(b) })
	if it.fail(err) {
		return
	}
	it.d.result(base)

	cfg := inject.Config{Core: inject.InO, Bench: b.Name, Tag: "base", SamplesPerFF: attribSamples, Seed: r.seed}
	buf := &inject.RecordBuffer{}
	var res *inject.Result
	aa := a
	aa.Tag = "attrib"
	r.call(it.span, "inject.Injector.Run", aa, func(int) { res, err = r.attribRun(cfg, p, buf) })
	if it.fail(err) {
		return
	}
	var recs []inject.Record
	r.call(it.span, "inject.RecordBuffer.Records", aa, func(int) { recs = buf.Records() })
	var units []analysis.UnitAVF
	r.call(it.span, "analysis.UnitRanking", aa, func(int) { units = analysis.UnitRanking(e.Space, res, zScore) })
	var insts []analysis.InstContribution
	r.call(it.span, "analysis.InstRanking", aa, func(int) { insts = analysis.InstRanking(recs, p) })
	it.d.result(res)
	it.d.units(units)
	it.d.insts(insts)
	it.check(checkRecords(recs, res))
	it.check(checkTotals(base, e.SamplesBase))
	it.check(checkTotals(res, attribSamples))
}

// attribRun runs one attribution campaign on the workload's single
// injector. The sink is detached afterwards: every injector stays
// registered process-wide, so one left attached would keep its records
// alive for the rest of the run.
func (r *run) attribRun(cfg inject.Config, p *prog.Program, sink inject.RecordSink) (*inject.Result, error) {
	r.attrib.Sink = sink
	defer func() { r.attrib.Sink = nil }()
	return r.attrib.Run(cfg, p, nil)
}

// campaignOoO: hookless base campaigns on every OoO benchmark at one
// sample per flip-flop, under the single-bit and the spatial multi-bit
// fault model. One benchmark's two campaigns are a task.
func campaignOoO(r *run, it *iter) error {
	benches, err := r.benchesFor(inject.OoO)
	if err != nil {
		return err
	}
	var engines []*core.Engine
	for _, model := range []string{inject.DefaultModel, "mbu"} {
		e := r.newEngine(it, inject.OoO)
		e.SamplesBase = 1
		e.FaultModel = model
		engines = append(engines, e)
	}
	for _, b := range benches {
		t0 := time.Now()
		for _, e := range engines {
			a := coreAttrs(e, b, core.Variant{})
			it.attempted++
			var err error
			r.call(it.span, "core.Engine.BuildProgram", a, func(int) { _, err = e.BuildProgram(b, core.Variant{}) })
			if it.fail(err) {
				continue
			}
			var res *inject.Result
			r.call(it.span, "core.Engine.Base", a, func(int) { res, err = e.Base(b) })
			if it.fail(err) {
				continue
			}
			it.d.result(res)
			it.check(checkTotals(res, e.SamplesBase))
		}
		it.task(time.Since(t0))
	}
	return nil
}

// sweepCold: the SDC 50x sweep over an empty cache.
func sweepCold(r *run, it *iter) error {
	res, err := r.sweepOnce(it, core.SDC, 50)
	if err != nil {
		return err
	}
	it.d.sweepResult(res)
	return nil
}

// sweepWarmSetup fills a campaign cache with one cold SDC 50x pass, which
// every sweep-warm iteration then reads, and keeps that pass's digest: the
// warm iterations must reproduce it.
func sweepWarmSetup(r *run) error {
	dir, err := r.cacheDir()
	if err != nil {
		return err
	}
	if err := useCache(dir); err != nil {
		return err
	}
	r.warmDir = dir
	it := &iter{d: newDigest()}
	res, err := r.sweepOnce(it, core.SDC, 50)
	if err != nil {
		return err
	}
	if it.failed > 0 {
		return fmt.Errorf("setup sweep: %d failed cells", it.failed)
	}
	d := newDigest()
	d.sweepResult(res)
	r.warmDigest = d.sum()
	return nil
}

// sweepWarm: seven design points, each on a fresh engine, all reading the
// campaigns the setup cached.
func sweepWarm(r *run, it *iter) error {
	for _, pt := range warmPoints {
		res, err := r.sweepOnce(it, pt.metric, pt.target)
		if err != nil {
			return err
		}
		it.d.sweepResult(res)
		if pt.metric == core.SDC && pt.target == 50 {
			d := newDigest()
			d.sweepResult(res)
			var err error
			if got := d.sum(); got != r.warmDigest {
				err = fmt.Errorf("warm SDC 50x sweep digest %.16s differs from the cold pass %.16s", got, r.warmDigest)
			}
			it.check(err)
		}
	}
	return nil
}

// sweepOnce runs one design point of the sweep grid on a fresh engine with
// quick sampling. Each cell's latency is a task. In a traced run the cell
// calls Base, Campaign, ExecOverhead and then EvalCombo, so that campaign,
// overhead and hardening time land in separate spans; EvalCombo then finds
// everything memoized and returns the identical outcome.
func (r *run) sweepOnce(it *iter, metric core.Metric, target float64) (*sweep.Result, error) {
	e := r.newEngine(it, inject.InO)
	e.SamplesBase, e.SamplesTech = 1, 1
	benches, err := r.benchesFor(inject.InO)
	if err != nil {
		return nil, err
	}
	sw := sweep.New(e, benches, metric, target)
	if r.quick && len(sw.Combos) > quickCombos {
		sw.Combos = sw.Combos[:quickCombos]
	}
	runSpan := r.tr.begin(it.span, "sweep.Run", attrs{Core: e.Kind.String(), Model: inject.DefaultModel})
	var mu sync.Mutex
	sw.Eval = func(c core.Combo, b *bench.Benchmark) (core.Outcome, error) {
		var out core.Outcome
		var err error
		d := r.call(runSpan, "sweep.cell", coreAttrs(e, b, c.Variant), func(id int) {
			out, err = r.evalCell(e, id, c, b, metric, target)
		})
		mu.Lock()
		it.task(d)
		it.busy += d
		mu.Unlock()
		return out, err
	}
	t0 := time.Now()
	res, err := sweep.Run(context.Background(), sw, sweep.Options{Workers: sweepWorkers})
	it.sweepWall += time.Since(t0)
	r.tr.end(runSpan)
	if err != nil {
		return nil, err
	}
	cells := len(sw.Combos) * len(sw.Benches)
	it.cells += cells
	it.attempted += cells
	for _, f := range res.Failures {
		it.fail(fmt.Errorf("cell %s/%s failed: %s", f.Combo, f.Bench, f.Err))
	}
	var evalErr error
	if res.Evaluated != cells {
		evalErr = fmt.Errorf("sweep evaluated %d of %d cells", res.Evaluated, cells)
	}
	it.check(evalErr)
	return res, nil
}

// evalCell evaluates one sweep cell. Untraced it is exactly the sweep's own
// evaluation; traced it first calls the campaigns and overhead the
// evaluation needs, each in its own span.
func (r *run) evalCell(e *core.Engine, parent int, c core.Combo, b *bench.Benchmark, metric core.Metric, target float64) (core.Outcome, error) {
	if r.tr != nil {
		a := coreAttrs(e, b, c.Variant)
		var err error
		r.call(parent, "core.Engine.Base", coreAttrs(e, b, core.Variant{}), func(int) { _, err = e.Base(b) })
		if err != nil {
			return core.Outcome{}, err
		}
		if c.Variant.Tag() != "base" {
			r.call(parent, "core.Engine.Campaign", a, func(int) { _, err = e.Campaign(b, c.Variant) })
			if err != nil {
				return core.Outcome{}, err
			}
		}
		r.call(parent, "core.Engine.ExecOverhead", a, func(int) { _, err = e.ExecOverhead(b, c.Variant) })
		if err != nil {
			return core.Outcome{}, err
		}
	}
	var out core.Outcome
	var err error
	r.call(parent, "core.Engine.EvalCombo", coreAttrs(e, b, c.Variant), func(int) {
		out, err = e.EvalCombo(b, c, metric, target)
	})
	return out, err
}

// checkTotals verifies a campaign sampled every flip-flop samples times.
func checkTotals(r *inject.Result, samples int) error {
	want := inject.SpaceBits(r.Config.Core) * samples
	if r.Totals.N != want {
		return fmt.Errorf("%s/%s/%s: %d injections, want %d", r.Config.Core, r.Config.Bench, r.Config.Tag, r.Totals.N, want)
	}
	sum := 0
	for _, f := range r.PerFF {
		sum += int(f.N)
	}
	if sum != r.Totals.N {
		return fmt.Errorf("%s/%s/%s: per-flip-flop samples sum to %d, totals say %d", r.Config.Core, r.Config.Bench, r.Config.Tag, sum, r.Totals.N)
	}
	return nil
}

// checkRecords verifies that the attribution records tally, bit by bit, to
// exactly the campaign result they were recorded alongside.
func checkRecords(recs []inject.Record, r *inject.Result) error {
	if len(recs) != r.Totals.N {
		return fmt.Errorf("%s/%s: %d records for %d injections", r.Config.Core, r.Config.Bench, len(recs), r.Totals.N)
	}
	got := make([]inject.FFStats, len(r.PerFF))
	for _, rec := range recs {
		if rec.Bit < 0 || rec.Bit >= len(got) {
			return fmt.Errorf("%s/%s: record for bit %d outside the space", r.Config.Core, r.Config.Bench, rec.Bit)
		}
		st := &got[rec.Bit]
		st.N++
		switch rec.Outcome {
		case inject.OMM:
			st.OMM++
		case inject.UT:
			st.UT++
		case inject.Hang:
			st.Hang++
		case inject.ED:
			st.ED++
		}
	}
	for bit := range got {
		if got[bit] != r.PerFF[bit] {
			return fmt.Errorf("%s/%s: records tally %+v on bit %d, result says %+v", r.Config.Core, r.Config.Bench, got[bit], bit, r.PerFF[bit])
		}
	}
	return nil
}
