package inject

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"clear/internal/bench"
	"clear/internal/isa"
	"clear/internal/prog"
	"clear/internal/sim"
)

func tinyProgram(t testing.TB) *prog.Program {
	t.Helper()
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Li(2, 0)
	b.Li(3, 30)
	b.Label("loop")
	b.Addi(2, 2, 1)
	b.Add(1, 1, 2)
	b.Sw(1, 0, 4)
	b.Bne(2, 3, "loop")
	b.Lw(4, 0, 4)
	b.Out(4)
	b.Halt()
	p, err := prog.New("tiny", b.Items(), nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	p.Vars = []prog.Var{{Name: "acc", Addr: 4, Len: 1}}
	if err := p.ComputeExpected(10000); err != nil {
		t.Fatal(err)
	}
	return p
}

// coreSink keeps TestNewCoreFootprint's cores live.
var coreSink sim.Core

// TestNewCoreFootprint guards what a campaign pays for each lane core it
// builds: over 1,000 NewCore calls on gzip, a core may allocate at most
// 1 KiB (InO) or 10.5 KiB (OoO) beyond its memory image of 4×MemWords
// bytes, so no per-core table creeps back into the cores.
func TestNewCoreFootprint(t *testing.T) {
	const calls = 1000
	p := bench.ByName("gzip").MustProgram()
	for _, tc := range []struct {
		kind  CoreKind
		limit uint64
	}{{InO, 1024}, {OoO, 10752}} {
		coreSink = NewCore(tc.kind, p) // translate the program first
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			coreSink = NewCore(tc.kind, p)
		}
		runtime.ReadMemStats(&after)
		perCore := (after.TotalAlloc - before.TotalAlloc) / calls
		if beyond := int64(perCore) - 4*int64(p.MemWords); beyond > int64(tc.limit) {
			t.Errorf("%v: a new core allocates %d bytes, %d beyond its %d-byte memory image; the limit is %d",
				tc.kind, perCore, beyond, 4*p.MemWords, tc.limit)
		}
	}
}

func TestClassify(t *testing.T) {
	p := tinyProgram(t)
	cases := []struct {
		res  prog.Result
		want Outcome
	}{
		{prog.Result{Status: prog.StatusHalted, Output: p.Expected}, Vanished},
		{prog.Result{Status: prog.StatusHalted, Output: []uint32{1}}, OMM},
		{prog.Result{Status: prog.StatusTrap}, UT},
		{prog.Result{Status: prog.StatusDetected}, ED},
		{prog.Result{Status: prog.StatusMaxSteps}, Hang},
	}
	for _, tc := range cases {
		if got := Classify(p, tc.res); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.res.Status, got, tc.want)
		}
	}
}

func TestCountsArithmetic(t *testing.T) {
	var c Counts
	for _, o := range []Outcome{Vanished, OMM, OMM, UT, Hang, ED} {
		c.Add(o)
	}
	if c.N != 6 || c.SDC() != 2 || c.DUE() != 3 || c.Vanished != 1 {
		t.Fatalf("counts %+v", c)
	}
	var d Counts
	d.Merge(c)
	d.Merge(c)
	if d.N != 12 || d.SDC() != 4 {
		t.Fatalf("merged %+v", d)
	}
}

func TestRunOneDeterministic(t *testing.T) {
	p := tinyProgram(t)
	c := NewCore(InO, p)
	nom := NewCore(InO, p).Run(100000)
	if nom.Status != prog.StatusHalted {
		t.Fatal("nominal failed")
	}
	for bit := 0; bit < 64; bit += 7 {
		o1, _ := RunOne(c, p, bit, 20, nom.Steps, nil)
		o2, _ := RunOne(c, p, bit, 20, nom.Steps, nil)
		if o1 != o2 {
			t.Fatalf("bit %d: nondeterministic outcome %v vs %v", bit, o1, o2)
		}
	}
}

func TestCampaignSmall(t *testing.T) {
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 42}
	r, err := NewInjector().Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	nBits := SpaceBits(InO)
	if len(r.PerFF) != nBits {
		t.Fatalf("PerFF len %d, want %d", len(r.PerFF), nBits)
	}
	if r.Totals.N != nBits {
		t.Fatalf("totals N %d, want %d", r.Totals.N, nBits)
	}
	sum := 0
	for _, f := range r.PerFF {
		sum += int(f.N)
	}
	if sum != nBits {
		t.Fatalf("per-FF sample total %d, want %d", sum, nBits)
	}
	if r.Totals.Vanished == 0 {
		t.Fatal("expected some vanished outcomes")
	}
	if r.Totals.SDC()+r.Totals.DUE() == 0 {
		t.Fatal("expected some SDC/DUE outcomes")
	}
	t.Logf("tiny campaign: %+v over %d cycles nominal", r.Totals, r.NomCycles)
}

func TestCampaignDeterminism(t *testing.T) {
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 1}
	r1, err := NewInjector().Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewInjector().Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Totals != r2.Totals {
		t.Fatalf("nondeterministic campaign: %+v vs %+v", r1.Totals, r2.Totals)
	}
	for i := range r1.PerFF {
		if r1.PerFF[i] != r2.PerFF[i] {
			t.Fatalf("bit %d differs", i)
		}
	}
}

func TestCampaignCache(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", dir)

	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 9}
	r1, err := NewInjector().Campaign(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.gob"))
	if len(files) != 1 {
		t.Fatalf("cache files: %v", files)
	}
	r2, err := NewInjector().Campaign(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Totals != r2.Totals {
		t.Fatalf("cache roundtrip mismatch: %+v vs %+v", r1.Totals, r2.Totals)
	}
	// corrupt cache: must regenerate, not fail
	if err := os.WriteFile(files[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r3, err := NewInjector().Campaign(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Totals != r1.Totals {
		t.Fatalf("regenerated campaign differs")
	}
}

// alwaysDetect is a checker that flags every commit.
type alwaysDetect struct{ noopChecker }

func (alwaysDetect) Observe(sim.CommitEvent) bool { return true }

func TestHookClassifiesED(t *testing.T) {
	p := tinyProgram(t)
	c := NewCore(InO, p)
	nom := NewCore(InO, p).Run(100000)
	// A checker that flags everything: every injection (and the run
	// itself) detects immediately.
	out, det := RunOne(c, p, 3, 5, nom.Steps, func(*prog.Program) sim.Checker { return alwaysDetect{} })
	if out != ED || det < 0 {
		t.Fatalf("got %v det=%d, want ED", out, det)
	}
}

func TestHighLevelModes(t *testing.T) {
	p := bench.ByName("gzip").MustProgram()
	for _, mode := range []Mode{RegUniform, RegWrite, VarUniform, VarWrite} {
		c, err := RunHighLevel(p, mode, 60, 7)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if c.N != 60 {
			t.Fatalf("%v: N=%d", mode, c.N)
		}
		t.Logf("%v: %+v", mode, c)
	}
	// Write-triggered modes should corrupt live values more often than
	// uniform ones corrupt dead state: regW must produce non-vanished
	// outcomes.
	c, err := RunHighLevel(p, RegWrite, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.N-c.Vanished == 0 {
		t.Fatal("regW produced no visible corruption at all")
	}
}

func TestHighLevelErrors(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 1)
	b.Out(1)
	b.Halt()
	p, _ := prog.New("novars", b.Items(), nil, 8)
	p.ComputeExpected(100)
	if _, err := RunHighLevel(p, VarUniform, 5, 1); err == nil {
		t.Fatal("expected error for program without vars")
	}
}

func TestOutcomeStrings(t *testing.T) {
	if Vanished.String() != "Vanished" || ED.String() != "ED" || Outcome(99).String() != "?" {
		t.Fatal("Outcome.String broken")
	}
	if InO.String() != "InO" || OoO.String() != "OoO" {
		t.Fatal("CoreKind.String broken")
	}
}

// TestRunPairSEMU covers the two-flip scenario of a single-event multiple
// upset on the cold body.
func TestRunPairSEMU(t *testing.T) {
	p := tinyProgram(t)
	c := NewCore(InO, p)
	nom := NewCore(InO, p).Run(100000)
	// deterministic
	o1, _ := RunScenario(c, p, Scenario{3, 40}, 20, nom.Steps, nil)
	o2, _ := RunScenario(c, p, Scenario{3, 40}, 20, nom.Steps, nil)
	if o1 != o2 {
		t.Fatalf("pair injection nondeterministic: %v vs %v", o1, o2)
	}
	// flipping the same bit twice in one strike is the identity: outcome
	// must equal the fault-free classification
	if out, _ := RunScenario(c, p, Scenario{7, 7}, 10, nom.Steps, nil); out != Vanished {
		t.Fatalf("double flip of one bit should vanish, got %v", out)
	}
}
