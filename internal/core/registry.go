package core

import (
	"cmp"
	"slices"
	"strings"

	"clear/internal/recovery"
	"clear/internal/technique"
)

// The registry bridge: core.Combo and core.Variant predate the technique
// registry and keep their concrete fields (DICE/Parity/EDS bools, the
// SWTechnique slice, the DFC/Monitor flags) as a stable public surface,
// while every derived artifact — names, campaign tags, program transforms,
// checker hooks, γ and cost arithmetic, enumeration — is driven by the
// registry's canonical order. Third-party registrations map onto
// Variant.Extra.

// Active reports whether a registered technique participates in this
// combination.
func (c Combo) Active(name string) bool {
	switch name {
	case technique.NameLEAPDICE:
		return c.DICE
	case technique.NameParity:
		return c.Parity
	case technique.NameEDS:
		return c.EDS
	}
	return c.Variant.activeName(name)
}

// activeName reports whether a campaign-layer technique (algorithm,
// software, architecture, or a registered extra) is active in the variant.
func (v Variant) activeName(name string) bool {
	switch name {
	case technique.NameABFTCorrection:
		return v.ABFT == ABFTCorr
	case technique.NameABFTDetection:
		return v.ABFT == ABFTDet
	case technique.NameCFCSS:
		return v.has(SWCFCSS)
	case technique.NameAssertions:
		return v.has(SWAssertions)
	case technique.NameEDDI:
		return v.has(SWEDDI)
	case technique.NameMonitor:
		return v.Monitor
	case technique.NameDFC:
		return v.DFC
	case technique.NameLEAPDICE, technique.NameParity, technique.NameEDS:
		return false // circuit/logic insertion lives on Combo, not Variant
	}
	return v.hasExtra(name)
}

// addTechnique marks a registered technique active in the combination.
// Built-ins set their concrete fields; anything else lands in
// Variant.Extra. Software techniques append in call order, so adding in
// registry order yields the canonical SW slice.
func (c *Combo) addTechnique(t technique.Technique) {
	switch t.Name() {
	case technique.NameABFTCorrection:
		c.Variant.ABFT = ABFTCorr
	case technique.NameABFTDetection:
		c.Variant.ABFT = ABFTDet
	case technique.NameCFCSS:
		c.Variant.SW = append(c.Variant.SW, SWCFCSS)
	case technique.NameAssertions:
		c.Variant.SW = append(c.Variant.SW, SWAssertions)
	case technique.NameEDDI:
		c.Variant.SW = append(c.Variant.SW, SWEDDI)
	case technique.NameMonitor:
		c.Variant.Monitor = true
	case technique.NameDFC:
		c.Variant.DFC = true
	case technique.NameLEAPDICE:
		c.DICE = true
	case technique.NameParity:
		c.Parity = true
	case technique.NameEDS:
		c.EDS = true
	default:
		c.Variant.Extra = append(c.Variant.Extra, t.Name())
	}
}

// ComboFor builds the combination activating the named registered
// techniques (in any order — the result is canonical) with a recovery.
// Unknown names return an error.
func ComboFor(names []string, rec recovery.Kind) (Combo, error) {
	c := Combo{Recovery: rec}
	reg := technique.Default()
	// canonical order: walk the registry, not the argument list
	want := map[string]bool{}
	for _, n := range names {
		t, err := reg.Lookup(n)
		if err != nil {
			return Combo{}, err
		}
		want[t.Name()] = true
	}
	for _, t := range reg.Techniques() {
		if want[t.Name()] {
			c.addTechnique(t)
		}
	}
	return c, nil
}

// ActiveTechniques returns the combination's registered techniques in
// canonical registry order.
func (c Combo) ActiveTechniques() []technique.Technique {
	var out []technique.Technique
	technique.Default().Walk(func(t technique.Technique) {
		if c.Active(t.Name()) {
			out = append(out, t)
		}
	})
	return out
}

// options projects the variant's software knobs for technique hooks.
func (v Variant) options() technique.Options {
	return technique.Options{AssertK: v.AssertK, EDDISrb: v.EDDISrb, SelEDDI: v.SelEDDI}
}

func (v Variant) hasExtra(name string) bool {
	for _, x := range v.Extra {
		if x == name {
			return true
		}
	}
	return false
}

// baseTag is the campaign cache tag of the variant with no
// campaign-affecting technique: the unprotected design.
const baseTag = "base"

// tagOf renders the variant's campaign cache tag from the registry: the
// campaign-affecting active techniques' frozen fragments sorted by
// (TagRank, registry order). Tag strings are on-disk campaign cache keys,
// so the fragment order is frozen independently of display order (DFC
// before Monitor, as the caches have always been keyed).
func (v Variant) tagOf() string {
	type frag struct {
		rank int
		s    string
	}
	var frags []frag
	opt := v.options()
	technique.Default().Walk(func(t technique.Technique) {
		if v.activeName(t.Name()) && technique.AffectsCampaign(t) {
			frags = append(frags, frag{technique.TagRankOf(t), technique.CampaignTagOf(t, opt)})
		}
	})
	if len(frags) == 0 {
		return baseTag
	}
	// frags are in registry order, so a stable sort by rank sorts them by
	// (rank, registry order)
	slices.SortStableFunc(frags, func(a, b frag) int { return cmp.Compare(a.rank, b.rank) })
	parts := make([]string, len(frags))
	for i, f := range frags {
		parts[i] = f.s
	}
	return strings.Join(parts, "+")
}
