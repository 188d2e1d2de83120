// Command precompute warms the fault-injection campaign cache for every
// configuration the experiment harness needs. Campaigns are deterministic,
// so they are computed once and cached in $CLEAR_CACHE_DIR, or else in
// "clear" under the user cache directory (see inject.CacheDir). From an
// empty cache the whole warm-up takes about 10 s on a 2-vCPU Linux VM and
// writes every campaign cmd/tables reads (CI checks that a following
// tables -exp all adds no cache entry).
//
// The warm loop is fault-tolerant: each campaign runs under panic
// isolation, a failing configuration is recorded and skipped instead of
// aborting the whole warm-up (the command then exits 1), and SIGINT/SIGTERM
// stops between campaigns with exit status 3 — everything cached so far is
// preserved, so rerunning resumes naturally and retries what failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"clear/internal/bench"
	"clear/internal/core"
	"clear/internal/experiments"
	"clear/internal/inject"
	"clear/internal/obs"
	"clear/internal/resilient"
)

func main() {
	only := flag.String("only", "", "restrict to a phase: base, ino, ooo, abft")
	faultModel := flag.String("fault-model", inject.DefaultModel,
		"fault model to warm the cache under: "+strings.Join(inject.ModelNames(), ", "))
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /debug/vars and /debug/pprof on this address while warming (e.g. 127.0.0.1:9090; empty = off)")
	traceOut := flag.String("trace-out", "",
		"write a JSONL campaign trace to this file (empty = off)")
	flag.Parse()
	log.SetFlags(log.Ltime)
	start := time.Now()

	ctx, stop := resilient.WithSignals(context.Background())
	defer stop()

	if inject.LookupModel(*faultModel) == nil {
		log.Fatalf("unknown -fault-model %q (accepted: %s)", *faultModel, strings.Join(inject.ModelNames(), ", "))
	}
	inoE := core.NewEngine(inject.InO)
	oooE := core.NewEngine(inject.OoO)
	inoE.FaultModel = *faultModel
	oooE.FaultModel = *faultModel

	// Both engines instrument into one registry: the per-core name
	// prefixes (core.ino.*, core.ooo.*) keep them apart.
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		inoE.Instrument(reg)
		oooE.Instrument(reg)
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
		inoE.Inj.Tracer = tr
		oooE.Inj.Tracer = tr
	}

	var failures []string

	phase := func(name string, f func() error) {
		if *only != "" && *only != name {
			return
		}
		if ctx.Err() != nil {
			return
		}
		t0 := time.Now()
		log.Printf("phase %s...", name)
		if err := f(); err != nil {
			if ctx.Err() != nil {
				return
			}
			fmt.Fprintf(os.Stderr, "precompute %s: %v\n", name, err)
			os.Exit(1)
		}
		log.Printf("phase %s done in %s", name, time.Since(t0).Round(time.Second))
	}

	warm := func(e *core.Engine, benches []*bench.Benchmark, variants []core.Variant) error {
		for _, v := range variants {
			for _, b := range benches {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				t0 := time.Now()
				_, err := resilient.Safe(func() (*inject.Result, error) {
					return e.Campaign(b, v)
				})
				if err != nil {
					if ctx.Err() != nil {
						return ctx.Err()
					}
					// One bad configuration must not starve the rest of the
					// cache: classify, record, keep warming.
					desc := fmt.Sprintf("%s/%s/%s [%s]: %v",
						e.Kind, b.Name, v.Tag(), resilient.KindOf(err), err)
					failures = append(failures, desc)
					log.Printf("  FAILED %s", desc)
					if st := resilient.StackOf(err); st != "" {
						fmt.Fprintln(os.Stderr, st)
					}
					continue
				}
				log.Printf("  %s %s %s (%s)", e.Kind, b.Name, v.Tag(), time.Since(t0).Round(time.Millisecond))
			}
		}
		return nil
	}

	phase("base", func() error {
		if err := warm(inoE, bench.All(), []core.Variant{{}}); err != nil {
			return err
		}
		return warm(oooE, bench.ForOoO(), []core.Variant{{}})
	})

	phase("ino", func() error {
		// full-suite technique campaigns
		if err := warm(inoE, bench.All(), experiments.InOFullVariants()); err != nil {
			return err
		}
		// subset campaigns (Tables 10/11/13/14/16)
		return warm(inoE, experiments.SubsetBenchmarks(), experiments.InOSubsetVariants())
	})

	phase("ooo", func() error {
		return warm(oooE, bench.ForOoO(), experiments.OoOVariants())
	})

	phase("abft", func() error {
		if err := warm(inoE, experiments.ABFTCorrBenchmarks(), experiments.ABFTCorrVariants()); err != nil {
			return err
		}
		if err := warm(inoE, experiments.ABFTDetBenchmarks(), experiments.ABFTDetVariants()); err != nil {
			return err
		}
		return warm(oooE, experiments.ABFTCorrBenchmarks(), experiments.ABFTCorrVariants())
	})

	if ctx.Err() != nil {
		log.Printf("interrupted after %s; campaigns cached so far are preserved at %s — rerun to resume",
			time.Since(start).Round(time.Second), inject.CacheDir())
		os.Exit(resilient.ExitResumable)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "precompute: %d configuration(s) failed:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	log.Printf("all phases complete in %s; cache at %s",
		time.Since(start).Round(time.Second), inject.CacheDir())
}
