package inject

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"clear/internal/bench"
	"clear/internal/lanes"
)

// referencePlan is the planner the counting sort replaced, kept verbatim as
// the oracle of TestPlanMatchesReference: it buckets lanes by window in a
// map and stable-sorts each window's lanes by cycle with a comparison sort.
func referencePlan(c *campaign) campaignPlan {
	var plan campaignPlan
	byWindow := make(map[int][]plannedLane)
	var sc Scenario
	for i := 0; i < c.nStrikes; i++ {
		bit := c.bit(i)
		for s := 0; s < c.cfg.SamplesPerFF; s++ {
			h, cycle := c.sample(bit, s)
			if sc = c.model.Expand(c.env, bit, cycle, h, sc[:0]); len(sc) == 0 {
				plan.vanished = append(plan.vanished, bit)
				continue
			}
			idx := cycle / c.interval
			byWindow[idx] = append(byWindow[idx], plannedLane{pop: int32(i), cycle: int32(cycle), h: h})
		}
	}
	windows := make([]int, 0, len(byWindow))
	for idx := range byWindow {
		windows = append(windows, idx)
	}
	slices.Sort(windows)
	for _, idx := range windows {
		lns := byWindow[idx]
		slices.SortStableFunc(lns, func(a, b plannedLane) int { return cmp.Compare(a.cycle, b.cycle) })
		for lo := 0; lo < len(lns); lo += lanes.Width {
			plan.gangs = append(plan.gangs, laneGang{ckpt: idx, lanes: lns[lo:min(lo+lanes.Width, len(lns))]})
		}
	}
	return plan
}

// requireSamePlan fails t unless got has want's gangs, each with the same
// checkpoint window and the same lanes in the same order, and the same
// vanished bits in the same order.
func requireSamePlan(t testing.TB, what string, want, got campaignPlan) {
	t.Helper()
	if len(got.gangs) != len(want.gangs) {
		t.Fatalf("%s: %d gangs, reference plans %d", what, len(got.gangs), len(want.gangs))
	}
	for g := range want.gangs {
		if !reflect.DeepEqual(got.gangs[g], want.gangs[g]) {
			t.Fatalf("%s: gang %d differs from the reference\nreference: %+v\nplanned:   %+v",
				what, g, want.gangs[g], got.gangs[g])
		}
	}
	if !slices.Equal(got.vanished, want.vanished) {
		t.Fatalf("%s: vanished bits %v, reference %v", what, got.vanished, want.vanished)
	}
}

// TestPlanMatchesReference requires planCampaign to produce referencePlan's
// plan exactly — gang windows, lane order and vanished bits — on both
// cores, under every registered fault model and mixModel's empty
// scenarios, at 1, 2 and 24 samples per flip-flop, with every cycle a
// window (interval 1), several windows (32) and one window (256).
func TestPlanMatchesReference(t *testing.T) {
	p := tinyProgram(t)
	registerTestModel(t, mixModel{})
	for _, kind := range []CoreKind{InO, OoO} {
		for _, interval := range []int{1, 32, 256} {
			for _, tag := range []string{"", "mbu/x", "uncore/x", "set/x", "zmix/x"} {
				for _, samples := range []int{1, 2, 24} {
					cfg := Config{Core: kind, Bench: "tiny", Tag: tag, SamplesPerFF: samples, Seed: 0x9A17}
					what := fmt.Sprintf("%v/%q samples=%d interval=%d", kind, tag, samples, interval)
					in := NewInjector()
					in.interval = interval
					c, _, err := in.newCampaign(cfg, p, nil)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					got := planCampaign(c)
					if len(got.gangs) == 0 {
						t.Fatalf("%s: planned no gangs", what)
					}
					requireSamePlan(t, what, referencePlan(c), got)
				}
			}
		}
	}
}

// planSink keeps BenchmarkPlanCampaign's plans live.
var planSink campaignPlan

// BenchmarkPlanCampaign measures planning alone on gzip: the InO base
// campaign at the default 24 samples per flip-flop, and an OoO mbu
// campaign at 1.
func BenchmarkPlanCampaign(b *testing.B) {
	p := bench.ByName("gzip").MustProgram()
	for _, cfg := range []Config{
		{Core: InO, Bench: "gzip", SamplesPerFF: 24, Seed: 0xC1EA5},
		{Core: OoO, Bench: "gzip", Tag: "mbu/base", SamplesPerFF: 1, Seed: 0xC1EA5},
	} {
		c, _, err := NewInjector().newCampaign(cfg, p, nil)
		if err != nil {
			b.Fatal(err)
		}
		model, _ := SplitModelTag(cfg.Tag)
		b.Run(fmt.Sprintf("%v/%s/%d", cfg.Core, model, cfg.SamplesPerFF), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				planSink = planCampaign(c)
			}
		})
	}
}
