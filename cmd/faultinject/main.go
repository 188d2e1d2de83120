// Command faultinject runs a flip-flop soft-error injection campaign for
// one (core, benchmark, technique) configuration and prints the outcome
// distribution and the most vulnerable flip-flop structures.
//
//	faultinject -core InO -bench gzip -samples 4
//	faultinject -core OoO -bench mcf -dfc
//
// The campaign runs under panic isolation: a crash in the simulator or a
// checker is reported with its kind and stack, and the command exits 1.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"clear/internal/bench"
	"clear/internal/core"
	"clear/internal/ff"
	"clear/internal/inject"
	"clear/internal/obs"
	"clear/internal/resilient"
	"clear/internal/stats"
)

func main() {
	coreName := flag.String("core", "InO", "core design: InO or OoO")
	benchName := flag.String("bench", "gzip", "benchmark name")
	samples := flag.Int("samples", 4, "injections per flip-flop")
	dfc := flag.Bool("dfc", false, "attach the DFC checker")
	faultModel := flag.String("fault-model", inject.DefaultModel,
		"fault model for the campaign: "+strings.Join(inject.ModelNames(), ", "))
	monitor := flag.Bool("monitor", false, "attach the monitor core")
	top := flag.Int("top", 10, "show the N most vulnerable structures")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /debug/vars and /debug/pprof on this address during the campaign (e.g. 127.0.0.1:9090; empty = off)")
	traceOut := flag.String("trace-out", "",
		"write a JSONL campaign trace to this file (empty = off)")
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
	b := bench.ByName(*benchName)
	if b == nil {
		log.Fatalf("unknown benchmark %q (have: %v)", *benchName, bench.Names())
	}
	e := core.NewEngine(kind)
	if inject.LookupModel(*faultModel) == nil {
		log.Fatalf("unknown -fault-model %q (accepted: %s)", *faultModel, strings.Join(inject.ModelNames(), ", "))
	}
	e.FaultModel = *faultModel
	e.SamplesBase = *samples
	e.SamplesTech = *samples
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		e.Instrument(reg)
		bound, shutdown, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("-metrics-addr: %v", err)
		}
		defer shutdown()
		log.Printf("metrics: http://%s/metrics", bound)
	}
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
	}
	v := core.Variant{DFC: *dfc, Monitor: *monitor}

	// The campaign runs under panic isolation: a simulator crash prints a
	// classified error with its stack instead of an unhandled panic.
	res, err := resilient.Safe(func() (*inject.Result, error) { return e.Campaign(b, v) })
	if err != nil {
		log.Printf("campaign failed [%s]: %v", resilient.KindOf(err), err)
		if st := resilient.StackOf(err); st != "" {
			fmt.Fprintln(os.Stderr, st)
		}
		os.Exit(1)
	}

	tot := res.Totals
	fmt.Printf("%s / %s / %s: %d injections over %d flip-flops, nominal %d cycles\n",
		kind, b.Name, inject.ModelTag(e.FaultModel, v.Tag()), tot.N, len(res.PerFF), res.NomCycles)
	show := func(name string, n int) {
		if tot.N == 0 {
			fmt.Printf("  %-9s %6d\n", name, n)
			return
		}
		p := float64(n) / float64(tot.N)
		moe := stats.MarginOfError(p, tot.N, 1.96)
		fmt.Printf("  %-9s %6d  (%.2f%% ± %.2f%%)\n", name, n, 100*p, 100*moe)
	}
	show("Vanished", tot.Vanished)
	show("OMM", tot.OMM)
	show("UT", tot.UT)
	show("Hang", tot.Hang)
	show("ED", tot.ED)
	fmt.Printf("  SDC-causing: %d, DUE-causing: %d\n", tot.SDC(), tot.DUE())
	if res.DetN > 0 {
		fmt.Printf("  mean detection latency: %.0f cycles over %d detections\n",
			float64(res.DetLatSum)/float64(res.DetN), res.DetN)
	}
	// Engine counters: pruned injections ended early on reconvergence with
	// the fault-free run; inert and dead ones were decided Vanished without
	// stepping a cycle (inert: empty scenarios and strikes only on state the
	// core never reads; dead: strikes on payloads the core overwrites before
	// reading them); deadlocked ones were decided Hang at a stop of the
	// warm tail (a checkpoint boundary or every 32 cycles), their core a
	// fixed point of Step. A campaign read from the cache runs no
	// injections.
	if s := e.Inj.Snapshot(); s.TotalInjections > 0 {
		fmt.Printf("  engine: %d injections run, %d pruned, %d inert, %d dead, %d deadlocked\n",
			s.TotalInjections, s.PrunedInjections, s.InertInjections, s.DeadInjections, s.DeadlockedInjections)
	} else {
		fmt.Printf("  engine: campaign read from the cache, no injections run\n")
	}

	fmt.Printf("\nmost vulnerable structures:\n")
	for i, s := range rankStructures(e.Space, res.PerFF) {
		if i >= *top {
			break
		}
		if s.n == 0 {
			fmt.Printf("  %-28s (no samples)\n", s.name)
			continue
		}
		fmt.Printf("  %-28s SDC %5.1f%%  DUE %5.1f%%\n", s.name,
			100*float64(s.sdc)/float64(s.n), 100*float64(s.due)/float64(s.n))
	}
}

// structStats tallies the campaign outcomes of one flip-flop structure.
type structStats struct {
	name        string
	n, sdc, due int
}

// rankStructures sums per-flip-flop outcomes by structure and orders the
// structures by SDC+DUE count, most vulnerable first. Ties are ordered by
// name, so the listing is the same on every run.
func rankStructures(sp *ff.Space, perFF []inject.FFStats) []structStats {
	idx := map[string]int{}
	var list []structStats
	for bit, st := range perFF {
		name, _ := sp.NameOf(bit)
		i, ok := idx[name]
		if !ok {
			i = len(list)
			idx[name] = i
			list = append(list, structStats{name: name})
		}
		s := &list[i]
		s.n += int(st.N)
		s.sdc += int(st.OMM)
		s.due += int(st.UT) + int(st.Hang) + int(st.ED)
	}
	sort.Slice(list, func(i, j int) bool {
		fi, fj := list[i].sdc+list[i].due, list[j].sdc+list[j].due
		if fi != fj {
			return fi > fj
		}
		return list[i].name < list[j].name
	})
	return list
}
