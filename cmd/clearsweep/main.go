// Command clearsweep runs the full cross-layer exploration: all 586
// combinations on both cores at a target improvement, printing each
// combination's achieved improvements and costs plus the Pareto-optimal
// set — the sweep behind the paper's Fig. 1d and its "which cross-layer
// solutions are best" conclusions.
//
// The exploration itself lives in internal/sweep: cells run concurrently
// on a work-stealing pool (-workers), and -state points at a JSON file
// that makes the sweep resumable — an interrupted run picks up from its
// completed cells. -techniques restricts the enumeration to a subset of
// the registered techniques (include list or -name excludes); the state
// file is keyed on the filter, so a resume under a different selection
// starts fresh instead of mixing grids. Long runs are fault-tolerant: cell
// panics are isolated and classified, hung cells trip a watchdog
// (-cell-timeout or the adaptive -cell-timeout-factor), a failed cell is
// reported and re-run by the next resume, SIGINT/SIGTERM drains in-flight
// cells and flushes state (exit status 3 = resumable; a second signal
// exits immediately), and the state file is lock-protected against
// concurrent sweeps.
//
// Observability (internal/obs): -metrics-addr serves live counters,
// gauges, and latency histograms as JSON at /metrics (plus expvar at
// /debug/vars and pprof at /debug/pprof/), and -trace-out writes a JSONL
// event trace — one record per sweep event and per injection campaign —
// that replays the run and diffs cleanly against another. Neither flag
// changes results: an instrumented sweep is bit-identical to a plain one.
//
// Exit statuses: 0 success, 1 completed with failed cells (or internal
// error), 2 another sweep holds the -state lock, 3 interrupted with
// resumable state flushed, 130 second-signal hard exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"clear/internal/analysis"
	"clear/internal/bench"
	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/obs"
	"clear/internal/recovery"
	"clear/internal/resilient"
	"clear/internal/sweep"
	"clear/internal/technique"
)

func main() {
	target := flag.Float64("target", 50, "SDC improvement target (0 = max)")
	coreName := flag.String("core", "InO", "core design: InO or OoO")
	benchName := flag.String("bench", "", "evaluate on a single benchmark (default: average all)")
	topN := flag.Int("top", 25, "print the N cheapest combinations")
	quick := flag.Bool("quick", false, "reduced sampling")
	workers := flag.Int("workers", 0, "concurrent cell evaluations (0 = one per CPU)")
	statePath := flag.String("state", "", "sweep state file for interrupt/resume (empty = no persistence)")
	flushEvery := flag.Int("flush-every", 16, "completed cells between state flushes (lower = safer against kills)")
	cellTimeout := flag.Duration("cell-timeout", 0,
		"fixed watchdog deadline per cell (0 = derive adaptively, negative = no watchdog)")
	cellFactor := flag.Float64("cell-timeout-factor", 20,
		"adaptive watchdog: deadline = factor x slowest successful cell (used when -cell-timeout is 0; <= 0 disables)")
	maxCombos := flag.Int("max-combos", 0, "evaluate only the first N combinations (0 = all; smoke tests)")
	techniques := flag.String("techniques", "",
		"comma-separated technique filter: names include (e.g. LEAP-DICE,Parity), -name excludes (e.g. -EDS); empty = all")
	faultModel := flag.String("fault-model", inject.DefaultModel,
		"fault model for every campaign: "+strings.Join(inject.ModelNames(), ", "))
	selective := flag.String("selective", "",
		"comma-separated top-k unit counts adding structure-granularity selective-hardening points to the frontier (e.g. 1,2,4; empty = off)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /debug/vars and /debug/pprof on this address while the sweep runs (e.g. 127.0.0.1:9090; empty = off)")
	traceOut := flag.String("trace-out", "",
		"write a JSONL event trace (sweep events + campaign records) to this file (empty = off)")
	flag.Parse()

	var kind inject.CoreKind
	switch strings.ToLower(*coreName) {
	case "ino":
		kind = inject.InO
	case "ooo":
		kind = inject.OoO
	default:
		log.Fatalf("unknown -core %q (accepted: InO, OoO)", *coreName)
	}
	e := core.NewEngine(kind)
	if inject.LookupModel(*faultModel) == nil {
		log.Fatalf("unknown -fault-model %q (accepted: %s)", *faultModel, strings.Join(inject.ModelNames(), ", "))
	}
	e.FaultModel = *faultModel
	if *quick {
		e.SamplesBase, e.SamplesTech = 1, 1
	}
	tgt := *target
	if tgt == 0 {
		tgt = math.Inf(1)
	}

	var benches []*bench.Benchmark
	if *benchName != "" {
		b := bench.ByName(*benchName)
		if b == nil {
			log.Fatalf("unknown benchmark %q (have: %v)", *benchName, bench.Names())
		}
		benches = []*bench.Benchmark{b}
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		e.Instrument(reg)
		bound, shutdown, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("-metrics-addr: %v", err)
		}
		defer shutdown()
		log.Printf("metrics: http://%s/metrics (pprof under http://%s/debug/pprof/)", bound, bound)
	}
	observer := sweep.Observer(sweep.LogObserver{Printf: log.Printf})
	if *traceOut != "" {
		tr, err := obs.OpenTrace(*traceOut)
		if err != nil {
			log.Fatalf("-trace-out: %v", err)
		}
		defer func() {
			if err := tr.Close(); err != nil {
				log.Printf("trace: %v", err)
			}
		}()
		e.Inj.Tracer = tr
		observer = sweep.MultiObserver{observer, sweep.TraceObserver{T: tr}}
	}

	ctx, stop := resilient.WithSignals(context.Background())
	defer stop()

	sw := sweep.New(e, benches, core.SDC, tgt)
	if filter, err := technique.ParseFilter(*techniques, technique.Default()); err != nil {
		log.Fatalf("-techniques: %v", err)
	} else if filter != nil {
		sw.ApplyFilter(e, filter)
		log.Printf("technique filter: %s (%d combinations)", filter.Spec(), len(sw.Combos))
	}
	if e.FaultModel != inject.DefaultModel {
		log.Printf("fault model: %s (%d combinations remain effective)", e.FaultModel, len(sw.Combos))
	}
	if *maxCombos > 0 && *maxCombos < len(sw.Combos) {
		sw.Combos = sw.Combos[:*maxCombos]
	}
	log.Printf("evaluating %d combinations on %d benchmark(s) at %sx SDC target...",
		len(sw.Combos), len(sw.Benches), fmtTarget(tgt))
	res, err := sweep.Run(ctx, sw, sweep.Options{
		Workers:           *workers,
		StatePath:         *statePath,
		FlushEvery:        *flushEvery,
		Observer:          observer,
		Metrics:           reg,
		CellTimeout:       *cellTimeout,
		CellTimeoutFactor: *cellFactor,
	})
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		if *statePath != "" {
			log.Printf("sweep interrupted: completed cells flushed to %s — rerun the same command to resume", *statePath)
			os.Exit(resilient.ExitResumable)
		}
		log.Print("sweep interrupted (no -state file, progress lost)")
		os.Exit(1)
	case sweep.IsLocked(err):
		log.Printf("%v", err)
		os.Exit(2)
	default:
		log.Fatalf("sweep: %v", err)
	}

	fmt.Printf("\ncheapest combinations meeting a %sx SDC target on %s:\n", fmtTarget(tgt), kind)
	fmt.Printf("%-58s %10s %10s %8s %8s %s\n", "combination", "SDC imp", "DUE imp", "area", "energy", "met")
	printed, met := 0, 0
	for _, r := range res.Rows {
		if !r.Met {
			continue
		}
		met++
		if printed >= *topN {
			continue
		}
		fmt.Printf("%-58s %10s %10s %7.1f%% %7.1f%% %v\n",
			r.Name, fmtImp(r.SDCImp), fmtImp(r.DUEImp), 100*r.Area, 100*r.Energy, r.Met)
		printed++
	}

	// The -selective axis: structure-granularity cost points (protect the
	// top-k most SDC-vulnerable units outright) evaluated on the aggregated
	// baseline campaigns and merged into the frontier, so the printout shows
	// whether unit-level insertion competes with flip-flop-level plans.
	if *selective != "" {
		ks, err := parseKList(*selective)
		if err != nil {
			log.Fatalf("-selective: %v", err)
		}
		var rs []*inject.Result
		for _, b := range sw.Benches {
			r, err := e.Base(b)
			if err != nil {
				log.Fatalf("-selective: baseline campaign %s: %v", b.Name, err)
			}
			rs = append(rs, r)
		}
		agg := analysis.Aggregate(rs)
		opt := core.HardenOptions{
			DICE: true, Parity: true, EDS: true,
			Recovery:    recovery.None,
			FixedGamma:  1,
			BaseSDCRate: float64(agg.Totals.SDC()) / float64(agg.Totals.N),
			BaseDUERate: float64(agg.Totals.UT+agg.Totals.Hang) / float64(agg.Totals.N),
		}
		fmt.Printf("\nselective structure-granularity points (baseline campaigns, %d benchmark(s)):\n", len(rs))
		var pts []core.ParetoPoint
		for _, k := range ks {
			pt, _, units := e.SelectiveHardening(agg, opt, core.SDC, k)
			fmt.Printf("  top-%-3d %10s %7.1f%%  units: %s\n",
				k, fmtImp(pt.Improvement), 100*pt.Energy, strings.Join(units, ", "))
			pts = append(pts, pt)
		}
		res.Frontier = core.ParetoFrontier(append(append([]core.ParetoPoint{}, res.Frontier...), pts...))
	}

	fmt.Printf("\nPareto frontier (SDC improvement vs energy), %d points:\n", len(res.Frontier))
	for _, p := range res.Frontier {
		fmt.Printf("  %-58s %10s %7.1f%%\n", p.Name, fmtImp(p.Improvement), 100*p.Energy)
	}

	fmt.Printf("\n%d of %d combinations met the target\n", met, len(res.Rows))
	if res.Restored > 0 {
		fmt.Printf("(%d cells restored from %s)\n", res.Restored, *statePath)
	}
	if q := e.Inj.Snapshot().Quarantined; q > 0 {
		fmt.Printf("(%d corrupt cache entries quarantined as *.corrupt and recomputed)\n", q)
	}
	if n := len(res.Failures); n > 0 {
		fmt.Printf("\n%d cell(s) FAILED:\n", n)
		for _, f := range res.Failures {
			fmt.Printf("  %s / %s [%s]: %s\n", f.Combo, f.Bench, f.Kind, f.Err)
			if f.Stack != "" {
				fmt.Printf("    stack:\n%s\n", indent(f.Stack, "      "))
			}
		}
		os.Exit(1)
	}
}

// parseKList parses the -selective value: positive comma-separated top-k
// unit counts.
func parseKList(s string) ([]int, error) {
	var ks []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("bad top-k value %q (want positive integers, e.g. 1,2,4)", part)
		}
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("no top-k values in %q", s)
	}
	return ks, nil
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return prefix + strings.Join(lines, "\n"+prefix)
}

func fmtTarget(v float64) string {
	if math.IsInf(v, 1) {
		return "max"
	}
	return fmt.Sprintf("%.0f", v)
}

func fmtImp(v float64) string {
	if math.IsInf(v, 1) {
		return "max"
	}
	return fmt.Sprintf("%.1fx", v)
}
