package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
)

// report is everything one run measured and checked.
type report struct {
	cfg       config
	wl        *workload
	setup     []float64 // set-up pass times scaled to the reference host, s
	setupRaw  []float64 // the same, unscaled
	iters     []*iter
	probes    []metric
	spans     []span
	spanCost  float64 // ns to record one span
	peakRSSMB float64

	Correct           bool
	attempted, failed int
	digest            string
	pinnedNote        string
	problems          []string
	endToEnd, layers  []metric
	extra             []metric // printed, not part of the JSON line
}

// finish runs the cross-iteration checks and derives every metric. Times
// are scaled to the reference host with the kernel time measured around
// each iteration (speed.go); the unscaled ones are printed beside them.
func (rep *report) finish() {
	var walls, rawWalls, kernels, rates, tasks, allocs, gcs, live []float64
	var inj, cells int64
	var iterSecs float64
	first := rep.iters[0]
	rep.digest = first.digest
	for _, it := range rep.iters {
		rep.attempted += it.attempted
		rep.failed += it.failed
		rep.problems = append(rep.problems, it.problems...)
		rep.check(it.digest == first.digest, "iteration %d digest %.16s differs from iteration 0's %.16s", it.id, it.digest, first.digest)
		c, c0 := it.counts, first.counts
		c.campaignsJoined, c0.campaignsJoined = 0, 0 // scheduling-dependent
		rep.check(c == c0, "iteration %d counts %+v differ from iteration 0's %+v", it.id, it.counts, first.counts)
		if rep.wl.setup == nil {
			rep.check(it.counts.cacheHits == 0, "iteration %d hit %d entries of an empty cache", it.id, it.counts.cacheHits)
		} else {
			rep.check(it.counts.injections == 0 && it.counts.cacheMisses == 0,
				"iteration %d ran %d injections and missed the warm cache %d times", it.id, it.counts.injections, it.counts.cacheMisses)
		}
		f := scale(it.kernel)
		wall := it.wall.Seconds() * f
		walls = append(walls, wall)
		rawWalls = append(rawWalls, it.wall.Seconds())
		kernels = append(kernels, it.kernel*1e3)
		rates = append(rates, rep.work(it)/wall)
		for _, t := range it.tasks {
			tasks = append(tasks, t*f)
		}
		allocs = append(allocs, it.allocMB)
		gcs = append(gcs, float64(it.gcs))
		live = append(live, it.liveMB)
		inj += it.counts.injections
		cells += int64(it.cells)
		iterSecs += it.wall.Seconds()
	}
	if pin, ok := pinnedDigests[rep.wl.name]; ok && rep.cfg.seed == defaultSeed && !rep.cfg.quick {
		rep.check(rep.digest == pin, "digest %s differs from the pinned default-seed digest %s", rep.digest, pin)
		rep.pinnedNote = "matches the pinned default-seed digest"
		if rep.digest != pin {
			rep.pinnedNote = "MISMATCH with the pinned default-seed digest " + pin
		}
	} else {
		rep.pinnedNote = "not pinned (pinned digests are for the default seed, full mode)"
	}
	rep.Correct = rep.failed == 0

	sorted := append([]float64(nil), tasks...)
	sort.Float64s(sorted)
	tq := rep.wl.tail
	taskSum := summarize(tasks)
	rep.endToEnd = []metric{
		distMetric("setup_s", "s", rep.setup),
		distMetric("wall_s", "s", walls),
		distMetric("work_per_s", "1/s", rates),
		{name: "peak_rss_mb", unit: "MB", value: rep.peakRSSMB},
		distMetric("alloc_mb", "MB", allocs),
	}
	// Task latencies are printed but not gated: a 40 us sweep cell or a
	// 200 ms benchmark flow is disturbed by noise shorter than the
	// iteration the speed kernels bracket, and their spread across runs
	// reached the 0.25 bound the gated metrics stay well inside.
	rep.extra = []metric{
		{name: "task_p50_ms", unit: "ms", value: taskSum.P50, s: &taskSum},
		{name: fmt.Sprintf("task_p%g_ms", tq*100), unit: "ms", value: quantile(sorted, tq), s: &taskSum},
		{name: "iterations", unit: "count", value: float64(len(rep.iters))},
		distMetric("kernel_ms", "ms", kernels),
		distMetric("setup_unscaled_s", "s", rep.setupRaw),
		distMetric("wall_unscaled_s", "s", rawWalls),
		{name: "failed_frac", unit: "ratio", value: float64(rep.failed) / float64(max(rep.attempted, 1))},
	}
	if inj > 0 {
		rep.extra = append(rep.extra, metric{name: "inj_per_s", unit: "1/s", value: float64(inj) / iterSecs})
	}
	if cells > 0 {
		rep.extra = append(rep.extra, metric{name: "cells_per_s", unit: "1/s", value: float64(cells) / iterSecs})
	}

	if !rep.cfg.trace {
		return
	}
	c := first.counts
	var joined []float64
	var busy, sweepWall float64
	for _, it := range rep.iters {
		joined = append(joined, float64(it.counts.campaignsJoined))
		busy += it.busy.Seconds()
		sweepWall += it.sweepWall.Seconds()
	}
	util := 0.0
	if sweepWall > 0 {
		util = busy / (sweepWorkers * sweepWall)
	}
	ratio := 0.0
	if c.injections > 0 {
		ratio = float64(c.pruned) / float64(c.injections)
	}
	rep.layers = append(rep.layers, rep.probes...)
	rep.layers = append(rep.layers,
		metric{name: "inject.injections", unit: "count", value: float64(c.injections)},
		metric{name: "inject.pruned", unit: "count", value: float64(c.pruned)},
		metric{name: "inject.prune_ratio", unit: "ratio", value: ratio},
		metric{name: "inject.cache_hits", unit: "count", value: float64(c.cacheHits)},
		metric{name: "inject.cache_misses", unit: "count", value: float64(c.cacheMisses)},
		metric{name: "inject.quarantined", unit: "count", value: float64(c.quarantined)},
		metric{name: "core.campaigns_run", unit: "count", value: float64(c.campaignsRun)},
		distMetric("core.campaigns_joined", "count", joined),
		metric{name: "core.programs_built", unit: "count", value: float64(c.programsBuilt)},
		metric{name: "sweep.worker_util", unit: "ratio", value: util},
		distMetric("go.gc_count", "count", gcs),
		distMetric("go.live_heap_mb", "MB", live),
	)
	rep.layers = append(rep.layers, rep.spanMetrics(iterSecs)...)
}

// iterationSpans returns the spans recorded inside timed iterations, not
// those of set-up or the probes.
func (rep *report) iterationSpans() []span {
	var spans []span
	for _, s := range rep.spans {
		if s.Iter >= 0 {
			spans = append(spans, s)
		}
	}
	return spans
}

// layerNames are the layers whose self time the traced run attributes:
// the benchmark harness itself and the packages it calls.
var layerNames = []string{"clearbench", "sweep", "core", "inject", "analysis"}

// spanMetrics derives the traced run's attribution from the iteration
// spans: each layer's share of the summed self time, how much of every
// iteration its layer spans cover, and the cost of recording the spans.
func (rep *report) spanMetrics(iterSecs float64) []metric {
	spans := rep.iterationSpans()
	self := selfTimes(spans)
	byLayer := map[string]int64{}
	var total int64
	children := map[int][]interval{}
	for i, s := range spans {
		byLayer[s.Layer()] += self[i]
		total += self[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	var out []metric
	for _, l := range layerNames {
		frac := 0.0
		if total > 0 {
			frac = float64(byLayer[l]) / float64(total)
		}
		out = append(out, metric{name: "self_frac." + l, unit: "ratio", value: frac})
	}
	coverage := 1.0
	for _, s := range spans {
		if s.Name == "clearbench.iteration" && s.End > s.Start {
			coverage = math.Min(coverage, float64(unionLength(children[s.ID], s.Start, s.End))/float64(s.End-s.Start))
		}
	}
	out = append(out,
		metric{name: "trace.coverage_frac", unit: "ratio", value: coverage},
		metric{name: "trace.overhead_frac", unit: "ratio", value: float64(len(spans)) * rep.spanCost / (iterSecs * 1e9)},
	)
	return out
}

func (rep *report) check(ok bool, format string, args ...any) {
	rep.attempted++
	if !ok {
		rep.failed++
		rep.problems = append(rep.problems, fmt.Sprintf(format, args...))
	}
}

// print writes the human-readable report and, as its last line, the JSON
// result: end-to-end metrics for an untraced run, per-layer metrics for a
// traced one. It fails, before the result line, when a metric is not a
// finite number.
func (rep *report) print(w io.Writer) error {
	mode := "untraced: end-to-end metrics"
	if rep.cfg.trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "clearbench %s seed=%d (%s) iterations=%d gomaxprocs=%d sweep-workers=%d\n",
		rep.wl.name, rep.cfg.seed, mode, len(rep.iters), runtime.GOMAXPROCS(0), sweepWorkers)
	fmt.Fprintf(w, "digest %s (%s)\n", rep.digest, rep.pinnedNote)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n\n", rep.Correct, rep.attempted, rep.failed)

	shown := rep.endToEnd
	if rep.cfg.trace {
		shown = rep.layers
	}
	fmt.Fprintf(w, "%-30s %-6s %12s %5s %12s %12s %12s %14s\n", "metric", "unit", "value", "n", "p25", "median", "p75", "tail")
	for _, m := range append(append([]metric(nil), shown...), rep.extra...) {
		printMetric(w, m)
	}
	if rep.cfg.trace {
		fmt.Fprintln(w)
		rep.printSpanTable(w)
	}

	res := result{Correct: rep.Correct, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range shown {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printMetric prints a metric's value and, when it has one, the sample
// count, quartiles and tail percentile of the distribution behind it.
func printMetric(w io.Writer, m metric) {
	if m.s == nil {
		fmt.Fprintf(w, "%-30s %-6s %12.6g\n", m.name, m.unit, m.value)
		return
	}
	tail := "-"
	if m.s.TailP > 0 {
		tail = fmt.Sprintf("p%g=%.6g", m.s.TailP, m.s.Tail)
	}
	fmt.Fprintf(w, "%-30s %-6s %12.6g %5d %12.6g %12.6g %12.6g %14s\n", m.name, m.unit, m.value, m.s.N, m.s.P25, m.s.P50, m.s.P75, tail)
}

// metric is one reported number. s, when set, summarizes the samples
// behind value; counts and ratios carry none.
type metric struct {
	name, unit string
	value      float64
	s          *summary
}

// distMetric reports the median of xs.
func distMetric(name, unit string, xs []float64) metric {
	s := summarize(xs)
	return metric{name: name, unit: unit, value: s.P50, s: &s}
}

// work is the iteration's work count in the workload's unit.
func (rep *report) work(it *iter) float64 {
	if rep.wl.unit == "cells" {
		return float64(it.cells)
	}
	return float64(it.counts.injections)
}

// printSpanTable prints, per span name of the timed iterations, the call
// count, the summed time, and the median duration and self time.
func (rep *report) printSpanTable(w io.Writer) {
	spans := rep.iterationSpans()
	self := selfTimes(spans)
	type agg struct {
		durs, selfs  []float64
		sum, selfSum float64
	}
	byName := map[string]*agg{}
	var names []string
	for i, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		d := float64(s.End-s.Start) / 1e6
		a.durs = append(a.durs, d)
		a.selfs = append(a.selfs, float64(self[i])/1e6)
		a.sum += d
		a.selfSum += float64(self[i]) / 1e6
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].selfSum > byName[names[j]].selfSum })
	fmt.Fprintf(w, "%-34s %7s %12s %12s %12s %12s\n", "span (timed iterations)", "calls", "total_ms", "self_ms", "p50_ms", "self_p50_ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "%-34s %7d %12.3f %12.3f %12.4f %12.4f\n", n, len(a.durs), a.sum, a.selfSum, median(a.durs), median(a.selfs))
	}
	fmt.Fprintln(w)
}

// result is the last line of the output, the machine-readable summary.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
