package main

import (
	"math"
	"runtime"
	"testing"

	"clear/internal/analysis"
	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/sweep"
)

func sampleResult() *inject.Result {
	r := &inject.Result{
		Config:    inject.Config{Core: inject.InO, Bench: "gzip", Tag: "base", SamplesPerFF: 2, Seed: 7},
		NomCycles: 1000,
		NomRet:    800,
		PerFF:     make([]inject.FFStats, 64),
		DetLatSum: 12,
		DetN:      3,
	}
	for i := range r.PerFF {
		r.PerFF[i] = inject.FFStats{N: 2, OMM: uint16(i % 2), UT: uint16(i % 3 / 2)}
		r.Totals.N += 2
	}
	r.Totals.OMM, r.Totals.UT = 32, 21
	r.Totals.Vanished = r.Totals.N - 53
	return r
}

func digestOf(fn func(d *digest)) string {
	d := newDigest()
	fn(d)
	return d.sum()
}

func TestDigestChangesWithAnySingleTally(t *testing.T) {
	base := digestOf(func(d *digest) { d.result(sampleResult()) })
	if again := digestOf(func(d *digest) { d.result(sampleResult()) }); again != base {
		t.Fatal("equal results digest differently")
	}
	mutations := map[string]func(r *inject.Result){
		"PerFF[17].OMM": func(r *inject.Result) { r.PerFF[17].OMM++ },
		"PerFF[63].ED":  func(r *inject.Result) { r.PerFF[63].ED++ },
		"PerFF[0].N":    func(r *inject.Result) { r.PerFF[0].N++ },
		"Totals.Hang":   func(r *inject.Result) { r.Totals.Hang++ },
		"DetLatSum":     func(r *inject.Result) { r.DetLatSum++ },
		"Config.Seed":   func(r *inject.Result) { r.Config.Seed++ },
		"NomCycles":     func(r *inject.Result) { r.NomCycles++ },
	}
	for name, mutate := range mutations {
		r := sampleResult()
		mutate(r)
		if got := digestOf(func(d *digest) { d.result(r) }); got == base {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}

	res := &sweep.Result{
		Rows:     []sweep.Row{{Name: "Parity", SDCImp: 50.5, DUEImp: 1, Energy: 0.12, Area: 0.1, Met: true, Benches: 3}},
		Frontier: []core.ParetoPoint{{Name: "Parity", Improvement: 50.5, Energy: 0.12}},
	}
	sw := digestOf(func(d *digest) { d.sweepResult(res) })
	res.Rows[0].Energy = math.Nextafter(res.Rows[0].Energy, 1)
	if digestOf(func(d *digest) { d.sweepResult(res) }) == sw {
		t.Error("a one-ulp energy change left the sweep digest unchanged")
	}

	units := []analysis.UnitAVF{{Unit: "decode", Bits: 10, N: 20, OMM: 3}}
	ud := digestOf(func(d *digest) { d.units(units) })
	units[0].OMM++
	if digestOf(func(d *digest) { d.units(units) }) == ud {
		t.Error("a unit tally change left the ranking digest unchanged")
	}
}

// TestDigestInvariantToGOMAXPROCS runs quick iterations of the workloads
// that run campaigns and sweeps in parallel, once on one processor and once
// on two, and requires identical digests.
func TestDigestInvariantToGOMAXPROCS(t *testing.T) {
	t.Setenv("CLEAR_CACHE_DIR", t.TempDir()) // restored after the test
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, name := range []string{"campaign-ino", "sweep-cold"} {
		r := &run{wl: workloadByName(name), seed: defaultSeed, quick: true, tmp: t.TempDir(), attrib: inject.NewInjector()}
		var digests []string
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			it, err := r.iteration(0)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", name, procs, err)
			}
			if it.failed != 0 {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", name, procs, it.problems)
			}
			digests = append(digests, it.digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s digest %s at GOMAXPROCS=1, %s at 2", name, digests[0], digests[1])
		}
	}
}
