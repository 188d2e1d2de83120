package inject

import (
	"time"

	"clear/internal/obs"
)

// Injector scopes the fault-injection engine's observability state to one
// campaign consumer — typically one core.Engine. Before it existed the
// prune and quarantine counters were process-global atomics, so two
// concurrent sweeps in one process conflated each other's numbers: an
// event from the in-order sweep could report prune work done by the
// out-of-order sweep. Each engine now owns an Injector; every campaign and
// warm injection runs through one (Run, Campaign, RunOneFrom), and its
// counters are read from that Injector alone.
//
// An Injector additionally carries the obs instruments of the injection
// hot path (per-outcome counters, the convergence-prune cycle histogram,
// cache hit/miss/quarantine counters) and an optional campaign trace sink.
// All instrument updates are single atomic operations (see internal/obs);
// an Injector with no registry attached and a nil Tracer adds no
// allocations to any injection.
//
// An Injector must not be copied after first use.
type Injector struct {
	// Tracer, when non-nil, receives one "campaign" JSONL record per
	// completed Campaign call (cache hits included, marked as such).
	Tracer *obs.Tracer

	// Sink, when non-nil, receives one attribution Record per executed
	// injection, campaign injections included (see record.go). The sink
	// observes only: outcomes, Result contents, and cache bytes are
	// identical with or without one, and a nil Sink adds a single pointer
	// check to the hot path. Sinks must be safe for concurrent use (campaign workers
	// emit in parallel). Note that Campaign cache hits replay no
	// injections and thus emit no records; attach the sink and use Run to
	// (re)collect attribution.
	Sink RecordSink

	injTotal    obs.Counter   // injections performed, empty scenarios included
	injInert    obs.Counter   // injections decided Vanished without stepping a cycle: empty or every flip inert
	injDead     obs.Counter   // the same, with some flip dead rather than inert (sim.GangCore.Dead)
	injPruned   obs.Counter   // injections ended early by convergence pruning
	injDeadlock obs.Counter   // injections decided Hang at a boundary, their core a fixed point of Step
	pruneCycles obs.Histogram // cycles simulated post-injection before the prune hit

	outVanished obs.Counter // outcome tallies of computed campaigns
	outOMM      obs.Counter
	outUT       obs.Counter
	outHang     obs.Counter
	outED       obs.Counter

	cacheHits   obs.Counter // campaigns served from the on-disk cache
	cacheMisses obs.Counter // campaigns computed (cache absent, stale, or corrupt)
	quarantined obs.Counter // corrupt cache entries renamed *.corrupt

	// interval, when non-zero, replaces CheckpointInterval as the spacing
	// of this injector's campaign references; tests set it to move window
	// boundaries. Results do not depend on it.
	interval int
}

// NewInjector returns a fresh injection scope with zeroed counters.
func NewInjector() *Injector { return &Injector{} }

// Snapshot is a point-in-time view of an injector's counters, taken with
// one atomic load per field.
type Snapshot struct {
	PrunedInjections     int64
	InertInjections      int64
	DeadInjections       int64
	DeadlockedInjections int64
	TotalInjections      int64
	Quarantined          int64
	CacheHits            int64
	CacheMisses          int64
}

// Snapshot returns the injector's current counters.
func (in *Injector) Snapshot() Snapshot {
	return Snapshot{
		PrunedInjections:     in.injPruned.Value(),
		InertInjections:      in.injInert.Value(),
		DeadInjections:       in.injDead.Value(),
		DeadlockedInjections: in.injDeadlock.Value(),
		TotalInjections:      in.injTotal.Value(),
		Quarantined:          in.quarantined.Value(),
		CacheHits:            in.cacheHits.Value(),
		CacheMisses:          in.cacheMisses.Value(),
	}
}

// Instrument publishes the injector's counters into reg under prefix
// (e.g. "inject.ino."). Instrument names are part of the observability
// contract (DESIGN.md §10):
//
//	<prefix>injections.total        counter
//	<prefix>injections.inert        counter (empty or all-inert strikes, decided Vanished without stepping a cycle)
//	<prefix>injections.dead         counter (strikes on dead payloads, decided Vanished at the fork)
//	<prefix>injections.pruned       counter
//	<prefix>injections.deadlocked   counter (decided Hang at a stop of the tail, a boundary or every 32 cycles: the core is a fixed point of Step)
//	<prefix>injections.prune_cycles histogram (cycles simulated before prune)
//	<prefix>outcome.vanished|omm|ut|hang|ed  counters
//	<prefix>cache.hits|misses|quarantined    counters
func (in *Injector) Instrument(reg *obs.Registry, prefix string) {
	reg.Attach(prefix+"injections.total", &in.injTotal)
	reg.Attach(prefix+"injections.inert", &in.injInert)
	reg.Attach(prefix+"injections.dead", &in.injDead)
	reg.Attach(prefix+"injections.pruned", &in.injPruned)
	reg.Attach(prefix+"injections.deadlocked", &in.injDeadlock)
	reg.Attach(prefix+"injections.prune_cycles", &in.pruneCycles)
	reg.Attach(prefix+"outcome.vanished", &in.outVanished)
	reg.Attach(prefix+"outcome.omm", &in.outOMM)
	reg.Attach(prefix+"outcome.ut", &in.outUT)
	reg.Attach(prefix+"outcome.hang", &in.outHang)
	reg.Attach(prefix+"outcome.ed", &in.outED)
	reg.Attach(prefix+"cache.hits", &in.cacheHits)
	reg.Attach(prefix+"cache.misses", &in.cacheMisses)
	reg.Attach(prefix+"cache.quarantined", &in.quarantined)
}

// addOutcomes accumulates a computed campaign's outcome totals into the
// per-outcome counters (batched per campaign, not per injection, to keep
// the simulation loop free of even atomic traffic it does not need).
func (in *Injector) addOutcomes(c Counts) {
	in.outVanished.Add(int64(c.Vanished))
	in.outOMM.Add(int64(c.OMM))
	in.outUT.Add(int64(c.UT))
	in.outHang.Add(int64(c.Hang))
	in.outED.Add(int64(c.ED))
}

// campaignRecord is the JSONL trace schema of one Campaign call (type
// "campaign"). DurationMS is the only field expected to differ between
// two identical runs.
type campaignRecord struct {
	Type         string `json:"type"` // "campaign"
	Core         string `json:"core"`
	Bench        string `json:"bench"`
	Tag          string `json:"tag"`
	SamplesPerFF int    `json:"samples_per_ff"`
	Seed         uint64 `json:"seed"`
	Source       string `json:"source"` // "cache" or "run"
	NomCycles    int    `json:"nom_cycles"`
	Injections   int    `json:"injections"`
	Vanished     int    `json:"vanished"`
	OMM          int    `json:"omm"`
	UT           int    `json:"ut"`
	Hang         int    `json:"hang"`
	ED           int    `json:"ed"`
	DurationMS   int64  `json:"duration_ms"`
}

// traceCampaign emits the campaign trace record when a sink is attached.
func (in *Injector) traceCampaign(cfg Config, r *Result, source string, elapsed time.Duration) {
	if in.Tracer == nil {
		return
	}
	in.Tracer.Emit(campaignRecord{
		Type:         "campaign",
		Core:         cfg.Core.String(),
		Bench:        cfg.Bench,
		Tag:          nonEmpty(cfg.Tag),
		SamplesPerFF: cfg.SamplesPerFF,
		Seed:         cfg.Seed,
		Source:       source,
		NomCycles:    r.NomCycles,
		Injections:   r.Totals.N,
		Vanished:     r.Totals.Vanished,
		OMM:          r.Totals.OMM,
		UT:           r.Totals.UT,
		Hang:         r.Totals.Hang,
		ED:           r.Totals.ED,
		DurationMS:   elapsed.Milliseconds(),
	})
}
