package tcode

import (
	"fmt"
	"math/rand"
	"sync"
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

// observed is what can be observed of a translation: its decode facts and
// what its closures return on fixed operands.
type observed struct {
	in                                    isa.Inst
	valid, rs1, rs2, control, branch, jmp bool
	dst                                   uint8
	res, store, y, val, target            uint32
	trap, exc, taken                      bool
	tt                                    uint64
}

func observe(d *DInst) observed {
	o := observed{in: d.In, valid: d.Valid, rs1: d.NeedsRs1, rs2: d.NeedsRs2,
		control: d.IsControl, branch: d.IsBranch, jmp: d.IsJump, dst: d.Dst}
	o.res, o.store, o.y, o.trap, o.tt = d.Exec(0x9E3779B9, 7, 100)
	o.val, o.exc = d.ALU(0x9E3779B9, 7)
	if d.Br != nil {
		o.taken, o.target = d.Br(0x9E3779B9, 7, 100)
	}
	return o
}

// collider returns a word other than w that maps to w's memo slot.
func collider(w uint32) uint32 {
	c := w + 1
	for memoSlot(c) != memoSlot(w) {
		c++
	}
	return c
}

// held is a translation Decode returned and the word it was asked for.
type held struct {
	w uint32
	d *DInst
}

// checkDecode decodes w through the memo and reports an error unless the
// result is w's exact compilation.
func checkDecode(w uint32) (*DInst, error) {
	d := Decode(w)
	if d == nil {
		return nil, fmt.Errorf("word %#08x: nil decode", w)
	}
	if d.In != isa.Decode(w) {
		return nil, fmt.Errorf("word %#08x: memo returned the decode of %#08x", w, isa.Encode(d.In))
	}
	want := Compile(w)
	if observe(d) != observe(&want) {
		return nil, fmt.Errorf("word %#08x: memo entry differs from Compile", w)
	}
	return d, nil
}

// TestDecodeMemo pins the process-wide decode memo: every lookup returns
// the exact compilation of the requested word (purity) over four times the
// slot count, repeated; a repeated lookup hits; a colliding pair thrashing
// one slot stays exact; eight goroutines decoding overlapping, colliding
// word sets at once get exact results; and no translation the memo ever
// returned changes afterwards, whatever was evicted since.
func TestDecodeMemo(t *testing.T) {
	var kept []held
	words := randWords(4 << memoBits)
	for round := 0; round < 3; round++ {
		for _, w := range words {
			d, err := checkDecode(w)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if Decode(w) != d {
				t.Fatalf("round %d: word %#08x: an immediate second lookup missed", round, w)
			}
			if round == 0 {
				kept = append(kept, held{w, d})
			}
		}
	}

	// Two words sharing a slot evict each other on every lookup.
	a := words[0]
	b := collider(a)
	for i := 0; i < 64; i++ {
		for _, w := range []uint32{a, b} {
			d, err := checkDecode(w)
			if err != nil {
				t.Fatalf("thrash round %d: %v", i, err)
			}
			kept = append(kept, held{w, d})
		}
	}

	// Eight goroutines over overlapping windows of one word set, in which
	// every word of the first 256 has a collider.
	shared := randWords(2 << memoBits)
	for _, w := range shared[:256] {
		shared = append(shared, collider(w))
	}
	const goroutines = 8
	var wg sync.WaitGroup
	keptBy := make([][]held, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := g * len(shared) / (2 * goroutines)
			for i := range len(shared) / 2 {
				w := shared[(start+i)%len(shared)]
				d, err := checkDecode(w)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				keptBy[g] = append(keptBy[g], held{w, d})
			}
		}()
	}
	wg.Wait()
	for _, k := range keptBy {
		kept = append(kept, k...)
	}

	for _, k := range kept {
		want := Compile(k.w)
		if observe(k.d) != observe(&want) {
			t.Fatalf("word %#08x: a returned translation changed after later decodes", k.w)
		}
	}
}
