// Command tables regenerates the paper's evaluation tables and figures.
// Campaigns come from the campaign cache (see inject.CacheDir): a cold run
// computes and caches the ones it needs, and precompute warms them all.
//
//	tables -exp table19        # one experiment
//	tables -exp all            # everything
//	tables -list               # available experiment ids
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"clear/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id (table1..table27, fig1d, fig8..fig10) or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	quick := flag.Bool("quick", false, "reduced sampling (1 injection per flip-flop; for smoke runs)")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s  %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}

	ctx := experiments.NewCtx()
	if *quick {
		ctx.InO.SamplesBase, ctx.InO.SamplesTech = 1, 1
		ctx.OoO.SamplesBase, ctx.OoO.SamplesTech = 1, 1
	}

	run := func(e experiments.Experiment) {
		t0 := time.Now()
		out, err := e.Run(ctx)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Println(out)
		fmt.Printf("(%s generated in %s)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, ok := experiments.Get(*exp)
	if !ok {
		log.Fatalf("unknown experiment %q (use -list)", *exp)
	}
	run(e)
}
