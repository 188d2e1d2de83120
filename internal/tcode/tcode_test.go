package tcode

import (
	"math/rand"
	"testing"

	"clear/internal/isa"
)

// randWords yields a deterministic mix of structured and raw random
// instruction words so every opcode, format, and the invalid space all get
// exercised.
func randWords(n int) []uint32 {
	rng := rand.New(rand.NewSource(0x7C0DE))
	words := make([]uint32, n)
	for i := range words {
		switch i % 3 {
		case 0: // fully random — mostly invalid opcodes
			words[i] = rng.Uint32()
		case 1: // valid opcode, random fields
			words[i] = uint32(rng.Intn(64))<<26 | rng.Uint32()&((1<<26)-1)
		default: // valid opcode, small fields (typical code)
			words[i] = uint32(rng.Intn(64))<<26 | uint32(rng.Intn(1<<16))
		}
	}
	return words
}

// TestCompileMatchesDecode pins every translated fact to the decode it
// summarizes: the embedded isa.Inst and each predicate must agree with
// isa.Decode over a large word sample plus every value of the opcode field,
// defined or not, crossed with several rd and low-bit fields. Dst, which the
// cores' forwarding, writeback and rename tests compare on its own, must be
// In.Rd when the op writes a register and 0 otherwise, and only a valid op
// may write one.
func TestCompileMatchesDecode(t *testing.T) {
	words := randWords(20000)
	for op := uint32(0); op < 64; op++ {
		for _, rd := range []uint32{0, 1, 2, 17, 31} {
			for _, low := range []uint32{0, 0x0AAAAA, 1<<21 - 1} {
				words = append(words, op<<26|rd<<21|low)
			}
		}
	}
	for _, w := range words {
		d := Compile(w)
		in := isa.Decode(w)
		if d.In != in {
			t.Fatalf("word %#08x: Compile embedded %+v, isa.Decode gives %+v", w, d.In, in)
		}
		if d.Valid != in.Op.Valid() ||
			d.IsControl != in.Op.IsControl() || d.IsBranch != in.Op.IsBranch() ||
			d.IsJump != in.Op.IsJump() {
			t.Fatalf("word %#08x (%v): predicate mismatch vs opcode methods", w, in.Op)
		}
		if in.Op.WritesReg() && !d.Valid {
			t.Fatalf("word %#08x (%v): WritesReg without Valid", w, in.Op)
		}
		wantDst := uint8(0)
		if in.Op.WritesReg() {
			wantDst = in.Rd
		}
		if d.Dst != wantDst {
			t.Fatalf("word %#08x (%v, rd %d): Dst = %d, want %d", w, in.Op, in.Rd, d.Dst, wantDst)
		}
		wantRs1, wantRs2 := false, false
		switch in.Op.Fmt() {
		case isa.FmtR, isa.FmtStore, isa.FmtBranch:
			wantRs1, wantRs2 = true, true
		case isa.FmtI, isa.FmtLoad, isa.FmtJALR, isa.FmtOut:
			wantRs1 = true
		}
		if d.NeedsRs1 != wantRs1 || d.NeedsRs2 != wantRs2 {
			t.Fatalf("word %#08x (%v, fmt %v): NeedsRs1/2 = %v/%v, want %v/%v",
				w, in.Op, in.Op.Fmt(), d.NeedsRs1, d.NeedsRs2, wantRs1, wantRs2)
		}
		if d.Exec == nil || d.ALU == nil {
			t.Fatalf("word %#08x: nil execute closure", w)
		}
		if (d.Br != nil) != d.IsControl {
			t.Fatalf("word %#08x (%v): Br nil-ness %v disagrees with IsControl %v",
				w, in.Op, d.Br != nil, d.IsControl)
		}
	}
}

// TestTranslateAtPC pins the per-PC fast path's contract: a hit requires
// both an in-range pc and the exact load-time word; any corrupted latch
// word must miss so it gets compiled from its actual bits.
func TestTranslateAtPC(t *testing.T) {
	words := randWords(40)
	tp := Translate(words)
	if len(tp.ByPC) != len(words) {
		t.Fatalf("ByPC has %d entries for %d words", len(tp.ByPC), len(words))
	}
	for pc, w := range words {
		d := tp.AtPC(uint32(pc), w)
		if d == nil {
			t.Fatalf("pc %d: miss with the original word", pc)
		}
		if d.In != isa.Decode(w) {
			t.Fatalf("pc %d: translation decodes %+v, want %+v", pc, d.In, isa.Decode(w))
		}
		if tp.AtPC(uint32(pc), w^1) != nil {
			t.Fatalf("pc %d: hit with a corrupted word — stale semantics would execute", pc)
		}
	}
	if tp.AtPC(uint32(len(words)), 0) != nil {
		t.Fatal("out-of-range pc hit the translation table")
	}
	if tp.AtPC(^uint32(0), 0) != nil {
		t.Fatal("pc -1 hit the translation table")
	}
}

// TestCacheDecode pins the fallback cache: every lookup must return the
// exact compilation of the requested word (purity), across repeats, index
// collisions, and evictions.
func TestCacheDecode(t *testing.T) {
	var c Cache
	words := randWords(4096) // 8x the cache size: plenty of collisions
	for round := 0; round < 2; round++ {
		for _, w := range words {
			d := c.Decode(w)
			if d == nil {
				t.Fatalf("word %#08x: nil decode", w)
			}
			if d.In != isa.Decode(w) {
				t.Fatalf("word %#08x: cache returned decode of %#08x — collision served stale entry",
					w, isa.Encode(d.In))
			}
		}
	}
	// Interleave two words that share a cache index to force eviction
	// thrash; semantics must stay exact.
	a, b := words[0], words[0]^0x80000000
	for i := 0; i < 64; i++ {
		if d := c.Decode(a); d.In != isa.Decode(a) {
			t.Fatalf("thrash round %d: wrong decode for %#08x", i, a)
		}
		if d := c.Decode(b); d.In != isa.Decode(b) {
			t.Fatalf("thrash round %d: wrong decode for %#08x", i, b)
		}
	}
}
