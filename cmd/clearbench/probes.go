package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"clear/internal/analysis"
	"clear/internal/archres"
	"clear/internal/bench"
	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/prog"
	"clear/internal/sim"
	"clear/internal/sweep"
	"clear/internal/tcode"
)

// The probe suite measures each layer's primitive operations on fixed
// inputs, so every traced run reports every per-layer timing whatever its
// workload exercises: a layer change shows up in the probe that calls it
// and, on the workloads that depend on it, end to end. Random draws come
// from the run's seed. Each probe repeats its measurement and reports the
// median, with the samples' quartiles beside it.

// probeBench is the program the single-program probes run, on both cores.
const probeBench = "gzip"

// probe times reps repetitions of fn, each divided by the units of work fn
// reports, and returns the per-unit samples scaled by scale (1 = ns).
func probe(reps int, scale float64, fn func() float64) []float64 {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		units := fn()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/units/scale)
	}
	return xs
}

// splitmix64 is the probe draws' deterministic generator.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// programs returns the benchmark programs of a core's suite.
func programs(kind inject.CoreKind) ([]*prog.Program, error) {
	bs := bench.All()
	if kind == inject.OoO {
		bs = bench.ForOoO()
	}
	var ps []*prog.Program
	for _, b := range bs {
		p, err := b.Program()
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// probes runs the suite inside one span per probe and returns the metrics.
func (r *run) probes() ([]metric, error) {
	reps := 7
	if r.quick {
		reps = 2
	}
	r.tr.setIter(-1)
	var out []metric
	steps := []struct {
		name string
		fn   func(reps int) ([]metric, error)
	}{
		{"ino", func(reps int) ([]metric, error) { return simProbes(inject.InO, reps) }},
		{"ooo", func(reps int) ([]metric, error) { return simProbes(inject.OoO, reps) }},
		{"tcode", tcodeProbe},
		{"archres", archresProbe},
		{"inject", r.injectProbes},
		{"core", r.coreProbes},
		{"sweep", schedProbe},
	}
	for _, s := range steps {
		var ms []metric
		var err error
		r.call(0, "probe."+s.name, attrs{}, func(int) { ms, err = s.fn(reps) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out = append(out, ms...)
	}
	return out, nil
}

// simProbes measures one simulated core's nominal step cost over its
// benchmark suite and its state operations at the midpoint of the probe
// program.
func simProbes(kind inject.CoreKind, reps int) ([]metric, error) {
	prefix := "ino."
	if kind == inject.OoO {
		prefix = "ooo."
	}
	ps, err := programs(kind)
	if err != nil {
		return nil, err
	}
	cores := make([]sim.Core, len(ps))
	for i, p := range ps {
		cores[i] = inject.NewCore(kind, p)
	}
	step := probe(reps, 1, func() float64 {
		cycles := 0
		for i, c := range cores {
			c.Reset(ps[i])
			cycles += c.Run(8_000_000).Steps
		}
		return float64(cycles)
	})
	out := []metric{distMetric(prefix+"step_ns_per_cycle", "ns", step)}

	p := bench.ByName(probeBench).MustProgram()
	nom := inject.NewCore(kind, p).Run(8_000_000).Steps
	c := inject.NewCore(kind, p).(sim.GangCore)
	for c.Cycles() < nom/2 {
		c.Step()
	}
	other := inject.NewCore(kind, p).(sim.GangCore)
	other.CopyStateFrom(c)
	ck := c.Snapshot()
	const ops = 200
	var sink bool
	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"snapshot_ns", func() { ck = c.Snapshot() }},
		{"restore_ns", func() { c.Restore(ck) }},
		{"matches_ns", func() { sink = c.Matches(ck) != sink }},
		{"copy_state_ns", func() { other.CopyStateFrom(c) }},
		{"diff_ns", func() { sink = other.DiffFrom(c) != 0 != sink }},
	} {
		xs := probe(reps, 1, func() float64 {
			for i := 0; i < ops; i++ {
				op.fn()
			}
			return ops
		})
		out = append(out, distMetric(prefix+op.name, "ns", xs))
	}
	return out, nil
}

// tcodeProbe measures threaded-code translation over the InO suite.
func tcodeProbe(reps int) ([]metric, error) {
	ps, err := programs(inject.InO)
	if err != nil {
		return nil, err
	}
	xs := probe(reps, 1, func() float64 {
		words := 0
		for _, p := range ps {
			tcode.Translate(p.Words)
			words += len(p.Words)
		}
		return float64(words)
	})
	return []metric{distMetric("tcode.translate_ns_per_word", "ns", xs)}, nil
}

// archresProbe measures each architecture-level checker's cost per cycle:
// a nominal InO run over the suite with the checker attached (including
// building it, as every hooked injection does) minus the same run without.
func archresProbe(reps int) ([]metric, error) {
	ps, err := programs(inject.InO)
	if err != nil {
		return nil, err
	}
	cores := make([]sim.Core, len(ps))
	for i, p := range ps {
		cores[i] = inject.NewCore(inject.InO, p)
	}
	runAll := func(hook func(*prog.Program) sim.CommitHook) (time.Duration, int) {
		t0 := time.Now()
		cycles := 0
		for i, c := range cores {
			c.Reset(ps[i])
			if hook != nil {
				c.SetCommitHook(hook(ps[i]))
			} else {
				c.SetCommitHook(nil)
			}
			cycles += c.Run(8_000_000).Steps
		}
		return time.Since(t0), cycles
	}
	var out []metric
	for _, h := range []struct {
		name string
		hook func(*prog.Program) sim.CommitHook
	}{
		{"archres.dfc_ns_per_cycle", archres.NewDFC},
		{"archres.mon_ns_per_cycle", archres.NewMonitor},
	} {
		var xs []float64
		for i := 0; i < reps; i++ {
			plain, cycles := runAll(nil)
			hooked, _ := runAll(h.hook)
			xs = append(xs, float64((hooked-plain).Nanoseconds())/float64(cycles))
		}
		out = append(out, distMetric(h.name, "ns", xs))
	}
	return out, nil
}

// injectProbes measures reference building, the three injection kernels,
// one campaign of each kind, a campaign cache hit, and the two rankings.
func (r *run) injectProbes(reps int) ([]metric, error) {
	var all []*prog.Program
	var kinds []inject.CoreKind
	for _, kind := range []inject.CoreKind{inject.InO, inject.OoO} {
		ps, err := programs(kind)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			all = append(all, p)
			kinds = append(kinds, kind)
		}
	}
	var refErr error
	refs := probe(reps, 1e6, func() float64 {
		for i, p := range all {
			if _, _, err := inject.BuildReference(kinds[i], p, inject.CheckpointInterval, 8_000_000); err != nil {
				refErr = err
			}
		}
		return float64(len(all))
	})
	if refErr != nil {
		return nil, refErr
	}
	out := []metric{distMetric("inject.reference_ms", "ms", refs)}

	p := bench.ByName(probeBench).MustProgram()
	ref, nomRes, err := inject.BuildReference(inject.InO, p, inject.CheckpointInterval, 8_000_000)
	if err != nil {
		return nil, err
	}
	nom := nomRes.Steps
	const draws = 256
	bits := inject.SpaceBits(inject.InO)
	type draw struct{ bit, cycle int }
	ds := make([]draw, draws)
	for i := range ds {
		h := splitmix64(r.seed ^ uint64(i)<<20)
		ds[i] = draw{int(h % uint64(bits)), int((h >> 32) % uint64(nom))}
	}
	in := inject.NewInjector()
	c := inject.NewCore(inject.InO, p)
	dfc := archres.DFCHookFactory()
	for _, k := range []struct {
		name string
		fn   func(d draw)
	}{
		{"inject.kernel_warm_us", func(d draw) { in.RunOneFrom(c, p, ref, d.bit, d.cycle, nom, nil) }},
		{"inject.kernel_cold_us", func(d draw) { inject.RunOne(c, p, d.bit, d.cycle, nom, nil) }},
		{"inject.kernel_hooked_us", func(d draw) { inject.RunOne(c, p, d.bit, d.cycle, nom, dfc) }},
	} {
		xs := probe(reps, 1e3, func() float64 {
			for _, d := range ds {
				k.fn(d)
			}
			return draws
		})
		out = append(out, distMetric(k.name, "us", xs))
	}

	cfg := func(tag string) inject.Config {
		return inject.Config{Core: inject.InO, Bench: probeBench, Tag: tag, SamplesPerFF: 1, Seed: r.seed}
	}
	var res *inject.Result
	buf := &inject.RecordBuffer{}
	for _, cp := range []struct {
		name string
		fn   func() (*inject.Result, error)
	}{
		{"inject.campaign_ms.hookless", func() (*inject.Result, error) { return in.Run(cfg("base"), p, nil) }},
		{"inject.campaign_ms.hooked", func() (*inject.Result, error) { return in.Run(cfg("dfc"), p, dfc) }},
		{"inject.campaign_ms.attrib", func() (*inject.Result, error) {
			buf = &inject.RecordBuffer{}
			in.Sink = buf
			defer func() { in.Sink = nil }()
			return in.Run(cfg("base"), p, nil)
		}},
	} {
		var runErr error
		xs := probe(reps, 1e6, func() float64 {
			var err error
			if res, err = cp.fn(); err != nil {
				runErr = err
			}
			return 1
		})
		if runErr != nil {
			return nil, runErr
		}
		out = append(out, distMetric(cp.name, "ms", xs))
	}

	dir, err := r.cacheDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := useCache(dir); err != nil {
		return nil, err
	}
	if _, err := in.Campaign(cfg("base"), p, nil); err != nil {
		return nil, err
	}
	hits0 := in.Snapshot().CacheHits
	const lookups = 20
	var hitErr error
	hits := probe(reps, 1e3, func() float64 {
		for i := 0; i < lookups; i++ {
			if _, err := in.Campaign(cfg("base"), p, nil); err != nil {
				hitErr = err
			}
		}
		return lookups
	})
	if hitErr != nil {
		return nil, hitErr
	}
	if got := in.Snapshot().CacheHits - hits0; got != int64(reps*lookups) {
		return nil, fmt.Errorf("cache probe: %d hits, want %d", got, reps*lookups)
	}
	out = append(out, distMetric("inject.cache_hit_us", "us", hits))

	recs := buf.Records()
	space := inject.NewCore(inject.InO, p).SpaceOf()
	const ranks = 20
	unit := probe(reps, 1e3, func() float64 {
		for i := 0; i < ranks; i++ {
			analysis.UnitRanking(space, res, zScore)
		}
		return ranks
	})
	inst := probe(reps, 1e3, func() float64 {
		for i := 0; i < ranks; i++ {
			analysis.InstRanking(recs, p)
		}
		return ranks
	})
	out = append(out,
		distMetric("analysis.unit_ranking_us", "us", unit),
		distMetric("analysis.inst_ranking_us", "us", inst))
	return out, nil
}

// coreProbes measures program building and exec-overhead measurement for
// every distinct variant of the InO enumeration on the probe program, each
// repetition on a fresh engine, and combination evaluation with the base
// campaign memoized.
func (r *run) coreProbes(reps int) ([]metric, error) {
	b := bench.ByName(probeBench)
	base := b.MustProgram()
	seen := map[string]bool{}
	var variants []core.Variant
	for _, c := range core.Enumerate(inject.InO) {
		if tag := c.Variant.Tag(); !seen[tag] {
			seen[tag] = true
			variants = append(variants, c.Variant)
		}
	}
	var progErr error
	builds := probe(reps, 1e3, func() float64 {
		e := core.NewEngine(inject.InO)
		for _, v := range variants {
			if _, err := e.BuildProgram(b, v); err != nil {
				progErr = err
			}
		}
		return float64(len(variants))
	})
	if progErr != nil {
		return nil, progErr
	}

	var ovs []float64
	for i := 0; i < reps; i++ {
		e := core.NewEngine(inject.InO)
		var timed time.Duration
		n := 0
		for _, v := range variants {
			p, err := e.BuildProgram(b, v)
			if err != nil {
				return nil, err
			}
			if p == base {
				continue // same program: no runs to measure
			}
			t0 := time.Now()
			if _, err := e.ExecOverhead(b, v); err != nil {
				return nil, err
			}
			timed += time.Since(t0)
			n++
		}
		ovs = append(ovs, float64(timed.Nanoseconds())/float64(n)/1e6)
	}

	dir, err := r.cacheDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := useCache(dir); err != nil {
		return nil, err
	}
	e := core.NewEngine(inject.InO)
	e.Seed = r.seed
	e.SamplesBase, e.SamplesTech = 1, 1
	if _, err := e.Base(b); err != nil {
		return nil, err
	}
	var combos []core.Combo
	for _, c := range core.Enumerate(inject.InO) {
		if c.Variant.Tag() == "base" {
			combos = append(combos, c)
		}
	}
	var evalErr error
	evals := probe(reps, 1e3, func() float64 {
		for _, pt := range warmPoints {
			for _, c := range combos {
				if _, err := e.EvalCombo(b, c, pt.metric, pt.target); err != nil {
					evalErr = err
				}
			}
		}
		return float64(len(warmPoints) * len(combos))
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return []metric{
		distMetric("core.build_program_us", "us", builds),
		distMetric("core.exec_overhead_ms", "ms", ovs),
		distMetric("core.eval_combo_us", "us", evals),
	}, nil
}

// schedProbe measures the sweep engine's own cost per cell: a sweep over
// the full InO grid whose cells do no work, as worker time per cell.
func schedProbe(reps int) ([]metric, error) {
	sw := sweep.Sweep{
		Combos:  core.Enumerate(inject.InO),
		Benches: bench.All(),
		Eval: func(core.Combo, *bench.Benchmark) (core.Outcome, error) {
			return core.Outcome{SDCImp: 2, DUEImp: 2, TargetMet: true}, nil
		},
	}
	cells := float64(len(sw.Combos) * len(sw.Benches))
	var runErr error
	xs := probe(reps, 1e3, func() float64 {
		res, err := sweep.Run(context.Background(), sw, sweep.Options{Workers: sweepWorkers})
		if err == nil && res.Evaluated != int(cells) {
			err = fmt.Errorf("evaluated %d of %v cells", res.Evaluated, cells)
		}
		if err != nil {
			runErr = err
		}
		return cells / sweepWorkers
	})
	if runErr != nil {
		return nil, runErr
	}
	return []metric{distMetric("sweep.sched_us_per_cell", "us", xs)}, nil
}
