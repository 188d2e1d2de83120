// Command perfbench measures compiled (threaded-code) execution against the
// decode-switch interpreter and writes the comparison as JSON: the
// before/after evidence behind the repo's BENCH_*.json files and the CI
// guard that compiled execution does not regress.
//
// For each core × execution mode it reports nominal simulation speed
// (cycles/sec over repeated fault-free runs) and injection-campaign
// throughput (simulated cycles/sec through Injector.Run, which bypasses the
// on-disk campaign cache), plus the one-time threaded-code translation cost
// of the benchmark program. Both campaign cells run the 64-way gang engine,
// the only campaign engine. The process exits nonzero if compiled campaign
// throughput is below the interpreter's on any measured core or fails to
// strictly beat it on the out-of-order core — so CI can gate on the file it
// uploads.
//
//	perfbench -bench gzip -samples 1 -out BENCH_8.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"clear/internal/bench"
	"clear/internal/inject"
	"clear/internal/prog"
	"clear/internal/tcode"
)

type modeStats struct {
	NominalCycles        int     `json:"nominal_cycles"`
	NominalCyclesPerSec  float64 `json:"nominal_cycles_per_sec"`
	CampaignSeconds      float64 `json:"campaign_seconds"`
	CampaignInjections   int     `json:"campaign_injections"`
	CampaignCyclesPerSec float64 `json:"campaign_cycles_per_sec"`
}

type coreStats struct {
	Interpreted     modeStats `json:"interpreted"`
	Compiled        modeStats `json:"compiled"`
	CampaignSpeedup float64   `json:"campaign_speedup"`
	NominalSpeedup  float64   `json:"nominal_speedup"`
}

type report struct {
	Bench         string               `json:"bench"`
	SamplesPerFF  int                  `json:"samples_per_ff"`
	TranslationUS float64              `json:"translation_us"`
	ProgramWords  int                  `json:"program_words"`
	Cores         map[string]coreStats `json:"cores"`
}

func main() {
	benchName := flag.String("bench", "gzip", "benchmark to measure")
	samples := flag.Int("samples", 1, "injections per flip-flop for the campaign measurement")
	nomReps := flag.Int("nom-reps", 20, "fault-free runs to average for nominal speed")
	out := flag.String("out", "BENCH_8.json", "output JSON path (empty = stdout only)")
	flag.Parse()

	if *samples < 1 {
		log.Fatalf("-samples must be >= 1 (got %d)", *samples)
	}
	if *nomReps < 1 {
		log.Fatalf("-nom-reps must be >= 1 (got %d)", *nomReps)
	}

	b := bench.ByName(*benchName)
	if b == nil {
		log.Fatalf("unknown benchmark %q (have: %v)", *benchName, bench.Names())
	}
	p, err := b.Program()
	if err != nil {
		log.Fatal(err)
	}

	// Translation cost: compile the program image afresh a few times.
	// (p.Threaded() memoizes, so fresh tcode.Translate calls are measured.)
	const transReps = 50
	t0 := time.Now()
	for i := 0; i < transReps; i++ {
		tcode.Translate(p.Words)
	}
	transUS := float64(time.Since(t0).Microseconds()) / transReps

	rep := report{
		Bench:         b.Name,
		SamplesPerFF:  *samples,
		TranslationUS: transUS,
		ProgramWords:  len(p.Words),
		Cores:         map[string]coreStats{},
	}

	failed := false
	for _, kind := range []inject.CoreKind{inject.InO, inject.OoO} {
		var cs coreStats
		cs.Interpreted = measure(kind, p, b.Name, false, *samples, *nomReps)
		cs.Compiled = measure(kind, p, b.Name, true, *samples, *nomReps)
		// Guard the speedup denominators: a degenerate measurement (zero
		// throughput) must fail the cell, not poison the report with NaN/Inf
		// that json.MarshalIndent rejects.
		if cs.Interpreted.CampaignCyclesPerSec <= 0 || cs.Interpreted.NominalCyclesPerSec <= 0 {
			fmt.Fprintf(os.Stderr, "perfbench: degenerate interpreted measurement on %s (campaign %.0f, nominal %.0f cycles/sec)\n",
				kind, cs.Interpreted.CampaignCyclesPerSec, cs.Interpreted.NominalCyclesPerSec)
			rep.Cores[kind.String()] = cs
			failed = true
			continue
		}
		if cs.Compiled.CampaignCyclesPerSec <= 0 {
			fmt.Fprintf(os.Stderr, "perfbench: degenerate compiled measurement on %s (campaign %.0f cycles/sec)\n",
				kind, cs.Compiled.CampaignCyclesPerSec)
			rep.Cores[kind.String()] = cs
			failed = true
			continue
		}
		cs.CampaignSpeedup = cs.Compiled.CampaignCyclesPerSec / cs.Interpreted.CampaignCyclesPerSec
		cs.NominalSpeedup = cs.Compiled.NominalCyclesPerSec / cs.Interpreted.NominalCyclesPerSec
		rep.Cores[kind.String()] = cs
		fmt.Printf("%s: nominal %.0f -> %.0f cycles/sec (%.2fx), campaign %.0f -> %.0f cycles/sec (%.2fx)\n",
			kind,
			cs.Interpreted.NominalCyclesPerSec, cs.Compiled.NominalCyclesPerSec, cs.NominalSpeedup,
			cs.Interpreted.CampaignCyclesPerSec, cs.Compiled.CampaignCyclesPerSec, cs.CampaignSpeedup)
		// Gate: compiled must not lose to the interpreter anywhere, and on
		// the OoO core — where the unpacked mirror is supposed to pay off —
		// it must strictly win.
		if cs.CampaignSpeedup < 1.0 {
			fmt.Fprintf(os.Stderr, "perfbench: compiled campaign SLOWER than interpreted on %s (%.2fx)\n",
				kind, cs.CampaignSpeedup)
			failed = true
		} else if kind == inject.OoO && cs.CampaignSpeedup <= 1.0 {
			fmt.Fprintf(os.Stderr, "perfbench: compiled campaign did not beat interpreted on %s (%.2fx)\n",
				kind, cs.CampaignSpeedup)
			failed = true
		}
	}
	fmt.Printf("translation: %.1f us for %d words\n", transUS, len(p.Words))

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	} else {
		os.Stdout.Write(data)
	}
	if failed {
		os.Exit(1)
	}
}

// measure runs the nominal-speed and campaign measurements for one
// (core, execution mode) cell. The campaign always computes (Injector.Run,
// never the disk cache), with a fixed seed so all modes simulate the
// identical injection workload.
func measure(kind inject.CoreKind, p *prog.Program, name string, compiled bool, samples, nomReps int) modeStats {
	prior := tcode.Enabled()
	tcode.SetEnabled(compiled)
	defer tcode.SetEnabled(prior)

	var s modeStats
	c := inject.NewCore(kind, p)
	t0 := time.Now()
	total := 0
	for i := 0; i < nomReps; i++ {
		c.Reset(p)
		res := c.Run(8_000_000)
		if res.Status != prog.StatusHalted {
			log.Fatalf("%s/%s nominal run failed: %v", kind, name, res.Status)
		}
		s.NominalCycles = res.Steps
		total += res.Steps
	}
	s.NominalCyclesPerSec = float64(total) / time.Since(t0).Seconds()

	cfg := inject.Config{Core: kind, Bench: name, SamplesPerFF: samples, Seed: 0xC1EA5}
	t0 = time.Now()
	res, err := inject.NewInjector().Run(cfg, p, nil)
	if err != nil {
		log.Fatalf("%s/%s campaign: %v", kind, name, err)
	}
	s.CampaignSeconds = time.Since(t0).Seconds()
	s.CampaignInjections = res.Totals.N
	// Throughput in simulated cycles/sec: the campaign's injection count
	// times the nominal length approximates simulated work; wall-clock per
	// injection is what the sweep feels, so cycles/sec = N*nominal/elapsed.
	s.CampaignCyclesPerSec = float64(res.Totals.N) * float64(res.NomCycles) / s.CampaignSeconds
	return s
}
