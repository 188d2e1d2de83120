package core

import (
	"math"
	"sync"
	"testing"

	"clear/internal/bench"
	"clear/internal/inject"
	"clear/internal/prog"
)

// TestCampaignExactlyOnceConcurrent is the singleflight guarantee: N
// concurrent callers asking for the same (benchmark, variant) campaign
// must trigger exactly one computation — the others join it or hit the
// memo — and all observe the same result. Run under -race in CI.
func TestCampaignExactlyOnceConcurrent(t *testing.T) {
	e := testEngine(t)
	b := bench.ByName("inner_product")
	v := Variant{}

	const n = 16
	var wg sync.WaitGroup
	results := make([]*inject.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Campaign(b, v)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d observed a different result pointer", i)
		}
	}
	st := e.Stats()
	if st.CampaignsRun != 1 {
		t.Fatalf("campaign ran %d times under %d concurrent callers, want exactly 1", st.CampaignsRun, n)
	}
	if st.CampaignsJoined+st.CampaignsCached != n-1 {
		t.Fatalf("joined=%d cached=%d, want them to account for the other %d callers",
			st.CampaignsJoined, st.CampaignsCached, n-1)
	}

	// A later caller is a pure memo hit.
	if _, err := e.Campaign(b, v); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.CampaignsRun != 1 {
		t.Fatalf("sequential re-request recomputed the campaign (run=%d)", st.CampaignsRun)
	}
}

// TestCampaignConcurrentDistinctVariants checks that dedup never conflates
// different campaigns: concurrent callers over distinct variants compute
// one campaign each.
func TestCampaignConcurrentDistinctVariants(t *testing.T) {
	e := testEngine(t)
	b := bench.ByName("inner_product")
	variants := []Variant{
		{},
		{DFC: true},
	}
	const callersPer = 4
	var wg sync.WaitGroup
	for i := 0; i < callersPer*len(variants); i++ {
		v := variants[i%len(variants)]
		wg.Add(1)
		go func(v Variant) {
			defer wg.Done()
			if _, err := e.Campaign(b, v); err != nil {
				t.Errorf("campaign %q: %v", v.Tag(), err)
			}
		}(v)
	}
	wg.Wait()
	if st := e.Stats(); st.CampaignsRun != int64(len(variants)) {
		t.Fatalf("campaigns run = %d, want %d (one per distinct variant)", st.CampaignsRun, len(variants))
	}
}

// TestExecOverheadBaseCached pins that the untransformed variant's zero
// overhead is free: a repeated base-variant call builds no program and
// simulates nothing.
func TestExecOverheadBaseCached(t *testing.T) {
	e := testEngine(t)
	b := bench.ByName("inner_product")
	for i := 0; i < 2; i++ {
		ov, err := e.ExecOverhead(b, Variant{})
		if err != nil {
			t.Fatal(err)
		}
		if ov != 0 {
			t.Fatalf("base variant overhead = %v, want 0", ov)
		}
		if st := e.Stats(); st.ProgramsBuilt != 0 || st.OverheadsRun != 0 {
			t.Fatalf("call %d: base-variant overhead built %d programs and simulated %d runs, want none",
				i+1, st.ProgramsBuilt, st.OverheadsRun)
		}
	}
}

// TestExecOverheadConcurrent checks the nominal-cycles memo under
// concurrent callers. Callers asking only for an overhead share one
// fault-free run per program. Callers that load the campaign first, racing
// the others, write the same counts the runs would, so every caller sees
// the same overhead. Run under -race in CI.
func TestExecOverheadConcurrent(t *testing.T) {
	b := bench.ByName("inner_product")
	v := Variant{SW: []SWTechnique{SWCFCSS}}
	for _, mixed := range []bool{false, true} {
		e := testEngine(t)
		const n = 16
		var wg sync.WaitGroup
		ovs := make([]float64, n)
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if mixed && i%2 == 0 {
					if _, errs[i] = e.Campaign(b, v); errs[i] != nil {
						return
					}
				}
				ovs[i], errs[i] = e.ExecOverhead(b, v)
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("caller %d: %v", i, errs[i])
			}
			if math.Float64bits(ovs[i]) != math.Float64bits(ovs[0]) || ovs[0] <= 0 {
				t.Fatalf("caller %d saw overhead %v, caller 0 %v", i, ovs[i], ovs[0])
			}
		}
		if st := e.Stats(); !mixed && st.OverheadsRun != 2 {
			t.Fatalf("%d concurrent callers simulated %d fault-free runs, want 2 (base and variant)", n, st.OverheadsRun)
		}
	}
}

// distinctVariants returns the distinct variants of a core's enumeration,
// in enumeration order.
func distinctVariants(kind inject.CoreKind) []Variant {
	seen := map[string]bool{}
	var vs []Variant
	for _, c := range Enumerate(kind) {
		if tag := c.Variant.Tag(); !seen[tag] {
			seen[tag] = true
			vs = append(vs, c.Variant)
		}
	}
	return vs
}

// TestExecOverheadFromCampaigns pins the invariant ExecOverhead rests on —
// a campaign's NomCycles is its program's fault-free cycle count — and that
// overheads read from loaded campaigns are bit-identical to overheads a
// fresh engine simulates, and to the measurement they replace: two
// fault-free runs, and zero when the variant's program is the base
// program. It covers every variant of the in-order enumeration on
// inner_product and a few out-of-order ones.
func TestExecOverheadFromCampaigns(t *testing.T) {
	b := bench.ByName("inner_product")
	ooo := distinctVariants(inject.OoO)
	for _, tc := range []struct {
		kind     inject.CoreKind
		variants []Variant
	}{
		{inject.InO, distinctVariants(inject.InO)},
		{inject.OoO, []Variant{{}, ooo[1], ooo[len(ooo)/2], ooo[len(ooo)-1]}},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			t.Setenv("CLEAR_CACHE_DIR", t.TempDir())
			warm, fresh := NewEngine(tc.kind), NewEngine(tc.kind)
			for _, e := range []*Engine{warm, fresh} {
				e.SamplesBase, e.SamplesTech = 1, 1
			}
			baseProg, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			steps := map[string]int{}
			progs := map[string]*prog.Program{}
			for _, v := range append([]Variant{{}}, tc.variants...) {
				r, err := warm.Campaign(b, v)
				if err != nil {
					t.Fatalf("%s: %v", v.Tag(), err)
				}
				p, err := warm.BuildProgram(b, v)
				if err != nil {
					t.Fatal(err)
				}
				run := inject.NewCore(tc.kind, p).Run(20_000_000)
				if run.Status != prog.StatusHalted || r.NomCycles != run.Steps {
					t.Fatalf("%s: campaign NomCycles %d, fault-free run %d cycles (%v)",
						v.Tag(), r.NomCycles, run.Steps, run.Status)
				}
				steps[v.Tag()], progs[v.Tag()] = run.Steps, p
			}
			for _, v := range tc.variants {
				want := 0.0
				if progs[v.Tag()] != baseProg {
					want = float64(steps[v.Tag()])/float64(steps["base"]) - 1
				}
				got, err := warm.ExecOverhead(b, v)
				if err != nil {
					t.Fatal(err)
				}
				again, err := fresh.ExecOverhead(b, v)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(again) != math.Float64bits(want) {
					t.Fatalf("%s: overhead %v from campaigns, %v simulated, want %v", v.Tag(), got, again, want)
				}
			}
			if n := warm.Stats().OverheadsRun; n != 0 {
				t.Fatalf("engine that loaded every campaign simulated %d fault-free runs, want 0", n)
			}
			if n, want := fresh.Stats().OverheadsRun, int64(len(progs)); n != want {
				t.Fatalf("fresh engine simulated %d fault-free runs, want %d (one per program)", n, want)
			}
		})
	}
}
