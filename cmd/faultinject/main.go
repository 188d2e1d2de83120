// Command faultinject runs a flip-flop soft-error injection campaign for
// one (core, benchmark, technique) configuration and prints the outcome
// distribution and the most vulnerable flip-flop structures.
//
//	faultinject -core InO -bench gzip -samples 4
//	faultinject -core OoO -bench mcf -dfc
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"clear/internal/bench"
	"clear/internal/core"
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
	retries := flag.Int("retries", 2, "retry budget for transient campaign failures")
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

	// The campaign runs under panic isolation and transient-failure retry:
	// a simulator crash prints a classified error with its stack instead of
	// an unhandled panic, and a cache-IO hiccup gets another chance.
	res, attempts, err := resilient.Do(context.Background(),
		resilient.Policy{MaxAttempts: 1 + *retries, BaseDelay: time.Second},
		func() (*inject.Result, error) { return e.Campaign(b, v) })
	if err != nil {
		log.Printf("campaign failed [%s, %d attempt(s)]: %v", resilient.KindOf(err), attempts, err)
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

	// most vulnerable structures
	type structStats struct {
		name        string
		n, sdc, due int
	}
	byStruct := map[string]*structStats{}
	for bit, st := range res.PerFF {
		name, _ := e.Space.NameOf(bit)
		s := byStruct[name]
		if s == nil {
			s = &structStats{name: name}
			byStruct[name] = s
		}
		s.n += int(st.N)
		s.sdc += int(st.OMM)
		s.due += int(st.UT) + int(st.Hang) + int(st.ED)
	}
	var list []*structStats
	for _, s := range byStruct {
		list = append(list, s)
	}
	sort.Slice(list, func(i, j int) bool {
		return list[i].sdc+list[i].due > list[j].sdc+list[j].due
	})
	fmt.Printf("\nmost vulnerable structures:\n")
	for i, s := range list {
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
