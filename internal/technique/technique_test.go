package technique

import (
	"slices"
	"strings"
	"testing"

	"clear/internal/power"
	"clear/internal/recovery"
	"clear/internal/swres"
)

func TestDefaultRegistryValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default registry invalid: %v", err)
	}
}

func TestBuiltinsRegisteredInCanonicalOrder(t *testing.T) {
	want := []string{
		NameABFTCorrection, NameABFTDetection, NameCFCSS, NameAssertions,
		NameEDDI, NameMonitor, NameDFC, NameLEAPDICE, NameParity, NameEDS,
	}
	ts := Default().Techniques()
	if len(ts) < len(want) {
		t.Fatalf("registry has %d techniques, want at least %d", len(ts), len(want))
	}
	for i, n := range want {
		if ts[i].Name() != n {
			t.Errorf("technique %d = %q, want %q", i, ts[i].Name(), n)
		}
	}
	recs := Default().Recoveries()
	wantRec := []recovery.Kind{recovery.Flush, recovery.RoB, recovery.IR, recovery.EIR}
	if len(recs) != len(wantRec) {
		t.Fatalf("registry has %d recoveries, want %d", len(recs), len(wantRec))
	}
	for i, k := range wantRec {
		if recs[i].Kind() != k {
			t.Errorf("recovery %d = %v, want %v", i, recs[i].Kind(), k)
		}
	}
}

// Every technique must declare a layer, at least one applicable core kind,
// and a well-formed cost contribution (the registry contract of the
// Validate method, asserted per technique for sharper failure messages).
func TestBuiltinContracts(t *testing.T) {
	models := map[string]power.Model{"InO": power.InO(), "OoO": power.OoO()}
	for _, tech := range Default().All() {
		if l := tech.Layer(); l < Circuit || l > Recovery {
			t.Errorf("%s: layer %d out of range", tech.Name(), l)
		}
		applies := 0
		for _, core := range CoreKinds {
			if !tech.AppliesTo(core) {
				continue
			}
			applies++
			c := tech.Cost(models[core], core)
			if c.Area < 0 || c.Power < 0 || c.ExecTime < 0 {
				t.Errorf("%s: negative cost contribution on %s: %+v", tech.Name(), core, c)
			}
		}
		if applies == 0 {
			t.Errorf("%s: applies to no core kind", tech.Name())
		}
	}
}

func TestRegisterErrors(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(nil); err == nil {
		t.Error("registering nil should error")
	}
	if err := r.Register(Info{TechName: "", TechLayer: Software, Cores: []string{"InO"}}); err == nil {
		t.Error("registering empty name should error")
	}
	if err := r.Register(Info{TechName: "a+b", TechLayer: Software, Cores: []string{"InO"}}); err == nil {
		t.Error("registering a name with '+' should error")
	}
	ok := Info{TechName: "X", TechLayer: Software, Cores: []string{"InO"}}
	if err := r.Register(ok); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := r.Register(ok); err == nil {
		t.Error("duplicate registration should error, not panic")
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := Default().Lookup("NoSuchTechnique")
	if err == nil {
		t.Fatal("unknown lookup should error, not panic")
	}
	if !strings.Contains(err.Error(), NameLEAPDICE) {
		t.Errorf("error should list known names, got: %v", err)
	}
}

func TestUnregister(t *testing.T) {
	r := NewRegistry()
	if r.Unregister("ghost") {
		t.Error("unregistering a missing name should report false")
	}
	r.mustRegister(Info{TechName: "Tmp", TechLayer: Software, Cores: []string{"InO"}})
	if !r.Unregister("Tmp") {
		t.Error("unregister should report true")
	}
	if _, err := r.Lookup("Tmp"); err == nil {
		t.Error("lookup after unregister should error")
	}
}

// Walk and Recovery read the views that every registration change
// rebuilds.
func TestWalkFollowsRegistrationChanges(t *testing.T) {
	r := NewRegistry()
	walked := func() []string {
		var out []string
		r.Walk(func(t Technique) { out = append(out, t.Name()) })
		return out
	}
	r.mustRegister(Info{TechName: "A", TechLayer: Software})
	r.mustRegister(recTech{Info: Info{TechName: "IR", TechLayer: Recovery}, kind: recovery.IR})
	r.mustRegister(Info{TechName: "B", TechLayer: Software})
	if got := walked(); !slices.Equal(got, []string{"A", "B"}) {
		t.Errorf("Walk visits %q, want [A B]", got)
	}
	if r.Recovery(recovery.IR) == nil {
		t.Error("registered IR recovery not found")
	}
	r.Unregister("A")
	r.Unregister("IR")
	if got := walked(); !slices.Equal(got, []string{"B"}) {
		t.Errorf("after unregistering A, Walk visits %q, want [B]", got)
	}
	if r.Recovery(recovery.IR) != nil {
		t.Error("unregistered IR recovery still found")
	}
}

func TestValidateCatchesBadTechniques(t *testing.T) {
	r := NewRegistry()
	r.mustRegister(Info{TechName: "NoCore", TechLayer: Software, Cores: []string{"XYZ"}})
	if err := r.Validate(); err == nil {
		t.Error("technique applicable to no core should fail validation")
	}
}

func TestCampaignTags(t *testing.T) {
	reg := Default()
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{NameABFTCorrection, Options{}, "abftc"},
		{NameABFTDetection, Options{}, "abftd"},
		{NameCFCSS, Options{}, "cfcss"},
		{NameAssertions, Options{AssertK: swres.AssertCombined}, "assert-combined"},
		{NameEDDI, Options{EDDISrb: true}, "eddisrb"},
		{NameEDDI, Options{SelEDDI: true}, "seddi"},
		{NameEDDI, Options{}, "eddi"},
		{NameDFC, Options{}, "dfc"},
		{NameMonitor, Options{}, "mon.v2"},
	}
	for _, tc := range cases {
		tech, err := reg.Lookup(tc.name)
		if err != nil {
			t.Fatalf("lookup %s: %v", tc.name, err)
		}
		if got := CampaignTagOf(tech, tc.opt); got != tc.want {
			t.Errorf("%s tag = %q, want %q (frozen cache key)", tc.name, got, tc.want)
		}
	}
	// a third-party technique without a Tagger gets a sanitized name
	if got := CampaignTagOf(Info{TechName: "My Tech!", TechLayer: Software}, Options{}); got != "my-tech-" {
		t.Errorf("sanitized tag = %q, want %q", got, "my-tech-")
	}
}

func TestRecoveryCompatibilityTable(t *testing.T) {
	reg := Default()
	// Table 18 constraints as expressed through RecoveryCompat.
	cases := []struct {
		name string
		kind recovery.Kind
		core string
		want bool
	}{
		{NameParity, recovery.Flush, "InO", true},
		{NameEDS, recovery.IR, "InO", true},
		{NameDFC, recovery.IR, "InO", true},
		{NameDFC, recovery.EIR, "InO", true},
		{NameDFC, recovery.Flush, "InO", false},
		{NameMonitor, recovery.RoB, "OoO", true},
		{NameMonitor, recovery.Flush, "InO", false},
		{NameABFTCorrection, recovery.EIR, "InO", true},
		{NameABFTDetection, recovery.Flush, "InO", false},
		{NameABFTDetection, recovery.IR, "InO", false},
		{NameCFCSS, recovery.IR, "InO", false},
		{NameEDDI, recovery.IR, "InO", false},
		{NameAssertions, recovery.Flush, "InO", false},
		{NameLEAPDICE, recovery.IR, "InO", false},
	}
	for _, tc := range cases {
		tech, err := reg.Lookup(tc.name)
		if err != nil {
			t.Fatalf("lookup %s: %v", tc.name, err)
		}
		if got := CompatibleWith(tech, tc.kind, tc.core); got != tc.want {
			t.Errorf("CompatibleWith(%s, %v, %s) = %v, want %v",
				tc.name, tc.kind, tc.core, got, tc.want)
		}
		if !CompatibleWith(tech, recovery.None, tc.core) {
			t.Errorf("%s must be compatible with no-recovery", tc.name)
		}
	}
}

func TestFilterParse(t *testing.T) {
	reg := Default()
	if f, err := ParseFilter("", reg); err != nil || f != nil {
		t.Errorf("empty spec should yield nil filter, got %v, %v", f, err)
	}
	if _, err := ParseFilter("Bogus", reg); err == nil {
		t.Error("unknown name should error")
	}
	if _, err := ParseFilter("IR", reg); err == nil {
		t.Error("recovery names should not be filterable")
	}

	f, err := ParseFilter("parity,leap-dice", reg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !f.Allows(NameParity) || !f.Allows(NameLEAPDICE) {
		t.Error("included techniques should be allowed")
	}
	if f.Allows(NameEDS) || f.Allows(NameDFC) {
		t.Error("non-included techniques should be rejected by an include list")
	}
	// canonical spec: registry order, registered spelling
	if got := f.Spec(); got != "LEAP-DICE,Parity" {
		t.Errorf("Spec() = %q, want %q", got, "LEAP-DICE,Parity")
	}
	f2, err := ParseFilter("LEAP-DICE,  Parity", reg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if f.Spec() != f2.Spec() {
		t.Errorf("equivalent specs should normalize equal: %q vs %q", f.Spec(), f2.Spec())
	}

	ex, err := ParseFilter("-EDS", reg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if ex.Allows(NameEDS) {
		t.Error("excluded technique should be rejected")
	}
	if !ex.Allows(NameParity) || !ex.Allows(NameABFTCorrection) {
		t.Error("exclude-only filter should allow everything else")
	}
	if got := ex.Spec(); got != "-EDS" {
		t.Errorf("Spec() = %q, want %q", got, "-EDS")
	}

	// exclusion wins over inclusion
	both, err := ParseFilter("Parity,EDS,-EDS", reg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if both.Allows(NameEDS) {
		t.Error("exclusion should win over inclusion")
	}
	if !both.Allows(NameParity) {
		t.Error("Parity should remain allowed")
	}
	var nilF *Filter
	if !nilF.Allows(NameEDS) || nilF.Spec() != "" {
		t.Error("nil filter should allow everything with empty spec")
	}
}

func TestRecoveryFFOverheadTable(t *testing.T) {
	cases := []struct {
		k    recovery.Kind
		core string
		want float64
	}{
		{recovery.IR, "InO", 0.35},
		{recovery.EIR, "InO", 0.42},
		{recovery.Flush, "InO", 0.01},
		{recovery.RoB, "InO", 0},
		{recovery.IR, "OoO", 0.055},
		{recovery.EIR, "OoO", 0.055},
		{recovery.RoB, "OoO", 0.001},
		{recovery.None, "InO", 0},
		{recovery.None, "OoO", 0},
	}
	for _, tc := range cases {
		if got := RecoveryFFOverhead(tc.k, tc.core); got != tc.want {
			t.Errorf("RecoveryFFOverhead(%v, %s) = %v, want %v", tc.k, tc.core, got, tc.want)
		}
	}
}
