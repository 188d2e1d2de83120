package inject

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clear/internal/obs"
)

// TestInjectorScopedCounters is the regression test for the counter
// conflation bug: two injection scopes running in one process must tally
// independently.
func TestInjectorScopedCounters(t *testing.T) {
	t.Setenv("CLEAR_CACHE_DIR", t.TempDir())
	p := tinyProgram(t)

	a, b := NewInjector(), NewInjector()
	cfgA := Config{Core: InO, Bench: "tiny", Tag: "scope-a", SamplesPerFF: 1, Seed: 21}
	cfgB := Config{Core: InO, Bench: "tiny", Tag: "scope-b", SamplesPerFF: 2, Seed: 22}

	if _, err := a.Campaign(cfgA, p, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Campaign(cfgB, p, nil); err != nil {
		t.Fatal(err)
	}

	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.TotalInjections == 0 || sb.TotalInjections == 0 {
		t.Fatalf("scopes tallied nothing: a=%+v b=%+v", sa, sb)
	}
	if sb.TotalInjections != 2*sa.TotalInjections {
		t.Fatalf("scopes conflated: a ran %d injections (1 sample/FF), b ran %d (2 samples/FF), want exactly double",
			sa.TotalInjections, sb.TotalInjections)
	}
	if sa.CacheMisses != 1 || sa.CacheHits != 0 {
		t.Fatalf("scope a cache counters = %+v, want exactly one miss", sa)
	}

	// A cache hit on a fresh scope counts there and only there.
	c := NewInjector()
	if _, err := c.Campaign(cfgA, p, nil); err != nil {
		t.Fatal(err)
	}
	if sc := c.Snapshot(); sc.CacheHits != 1 || sc.CacheMisses != 0 || sc.TotalInjections != 0 {
		t.Fatalf("cache-hit scope = %+v, want one hit and no simulation", sc)
	}
}

// TestInjectorScopedResultsIdentical guards the observability invariant:
// a campaign is bit-identical whichever injector computes it — a fresh one,
// or one whose counters are published to a registry, whose tracer is on,
// and which already carries another campaign's work.
func TestInjectorScopedResultsIdentical(t *testing.T) {
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 33}
	r1, err := NewInjector().Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	busy := NewInjector()
	busy.Instrument(obs.NewRegistry(), "inject.ino.")
	var trace bytes.Buffer
	busy.Tracer = obs.NewTracer(&trace)
	if _, err := busy.Run(Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 34}, p, nil); err != nil {
		t.Fatal(err)
	}
	r2, err := busy.Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("Run result depends on the injector that computed it")
	}
}

// TestInjectorInstrumentNames pins the registry naming contract the debug
// endpoint (and the CI smoke test) rely on, for one injector per core as
// the engines attach them.
func TestInjectorInstrumentNames(t *testing.T) {
	reg := obs.NewRegistry()
	NewInjector().Instrument(reg, "inject.ino.")
	NewInjector().Instrument(reg, "inject.ooo.")
	var want []string
	for _, prefix := range []string{"inject.ino.", "inject.ooo."} {
		for _, name := range []string{
			"cache.hits",
			"cache.misses",
			"cache.quarantined",
			"injections.dead",
			"injections.deadlocked",
			"injections.inert",
			"injections.prune_cycles",
			"injections.pruned",
			"injections.total",
			"outcome.ed",
			"outcome.hang",
			"outcome.omm",
			"outcome.ut",
			"outcome.vanished",
		} {
			want = append(want, prefix+name)
		}
	}
	if got := reg.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("instrument names = %v, want %v", got, want)
	}
}

// TestInjectorCampaignTrace checks the JSONL campaign records: one per
// Campaign call, source "run" for computed and "cache" for replayed, with
// outcome totals that match the result.
func TestInjectorCampaignTrace(t *testing.T) {
	t.Setenv("CLEAR_CACHE_DIR", t.TempDir())
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 44}

	var buf bytes.Buffer
	in := NewInjector()
	in.Tracer = obs.NewTracer(&buf)
	r, err := in.Campaign(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Campaign(cfg, p, nil); err != nil {
		t.Fatal(err)
	}
	if err := in.Tracer.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace holds %d records, want 2:\n%s", len(lines), buf.String())
	}
	var recs []campaignRecord
	for _, l := range lines {
		var rec campaignRecord
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("trace line %q is not JSON: %v", l, err)
		}
		recs = append(recs, rec)
	}
	if recs[0].Source != "run" || recs[1].Source != "cache" {
		t.Fatalf("sources = %q, %q; want run then cache", recs[0].Source, recs[1].Source)
	}
	for i, rec := range recs {
		if rec.Type != "campaign" || rec.Bench != "tiny" || rec.Core != "InO" {
			t.Fatalf("record %d identity wrong: %+v", i, rec)
		}
		if rec.Injections != r.Totals.N || rec.Vanished != r.Totals.Vanished || rec.OMM != r.Totals.OMM {
			t.Fatalf("record %d outcome totals diverge from the result: %+v vs %+v", i, rec, r.Totals)
		}
	}
}

// TestQuarantineScoped verifies disk-rot accounting lands on the scope
// that hit it.
func TestQuarantineScoped(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", dir)
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", Tag: "rot", SamplesPerFF: 1, Seed: 55}

	in := NewInjector()
	if _, err := in.Campaign(cfg, p, nil); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*rot*.gob"))
	if len(files) != 1 {
		t.Fatalf("cache files: %v", files)
	}
	if err := os.WriteFile(files[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	other := NewInjector()
	if _, err := in.Campaign(cfg, p, nil); err != nil {
		t.Fatal(err)
	}
	if got := in.Snapshot().Quarantined; got != 1 {
		t.Fatalf("quarantine count on the hitting scope = %d, want 1", got)
	}
	if got := other.Snapshot().Quarantined; got != 0 {
		t.Fatalf("unrelated scope saw %d quarantines, want 0", got)
	}
}
