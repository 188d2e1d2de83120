package ff

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocAndLookup(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("decode", "d.inst", 32)
	b := s.Alloc("execute", "e.y", 32)
	c := s.Alloc("write", "w.s.icc", 4)
	if s.NumBits() != 68 {
		t.Fatalf("NumBits = %d, want 68", s.NumBits())
	}
	if s.NumFields() != 3 {
		t.Fatalf("NumFields = %d, want 3", s.NumFields())
	}
	if a.Offset() != 0 || b.Offset() != 32 || c.Offset() != 64 {
		t.Fatalf("offsets wrong: %d %d %d", a.Offset(), b.Offset(), c.Offset())
	}
	f, ok := s.Lookup("e.y")
	if !ok || f.Offset() != 32 || f.Width() != 32 {
		t.Fatalf("Lookup(e.y) = %+v, %v", f, ok)
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Fatal("Lookup of missing field succeeded")
	}
}

func TestAllocPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Space)
	}{
		{"duplicate", func(s *Space) { s.Alloc("u", "x", 1); s.Alloc("u", "x", 1) }},
		{"zero width", func(s *Space) { s.Alloc("u", "x", 0) }},
		{"too wide", func(s *Space) { s.Alloc("u", "x", 65) }},
		{"after freeze", func(s *Space) { s.Freeze(); s.Alloc("u", "x", 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.f(NewSpace())
		})
	}
}

func TestNameOf(t *testing.T) {
	s := NewSpace()
	s.Alloc("decode", "d.inst", 32)
	s.Alloc("execute", "e.y", 32)
	name, unit := s.NameOf(0)
	if name != "d.inst" || unit != "decode" {
		t.Fatalf("NameOf(0) = %q/%q", name, unit)
	}
	name, unit = s.NameOf(31)
	if name != "d.inst" || unit != "decode" {
		t.Fatalf("NameOf(31) = %q/%q", name, unit)
	}
	name, _ = s.NameOf(32)
	if name != "e.y" {
		t.Fatalf("NameOf(32) = %q", name)
	}
	if u := s.UnitOf(63); u != "execute" {
		t.Fatalf("UnitOf(63) = %q", u)
	}
}

func TestUnitsAndBitsOf(t *testing.T) {
	s := NewSpace()
	s.Alloc("b", "x", 3)
	s.Alloc("a", "y", 2)
	s.Alloc("b", "z", 1)
	units := s.Units()
	if len(units) != 2 || units[0] != "a" || units[1] != "b" {
		t.Fatalf("Units = %v", units)
	}
	bits := s.BitsOf("y")
	if len(bits) != 2 || bits[0] != 3 || bits[1] != 4 {
		t.Fatalf("BitsOf(y) = %v", bits)
	}
	if s.BitsOf("missing") != nil {
		t.Fatal("BitsOf(missing) should be nil")
	}
}

// TestUnitIndex requires UnitIndex to number units in the order their
// first field was allocated, to agree with UnitOf on which bits share a
// unit, and to freeze the space.
func TestUnitIndex(t *testing.T) {
	s := NewSpace()
	s.Alloc("rob", "rob.head", 3)
	s.Alloc("fetch", "f.pc", 5)
	s.Alloc("rob", "rob.tail", 2)
	s.Alloc("lsu", "lsu.addr", 4)
	if got := s.NumUnits(); got != 3 {
		t.Fatalf("NumUnits = %d, want 3", got)
	}
	want := map[string]int{"rob": 0, "fetch": 1, "lsu": 2}
	for b := range s.NumBits() {
		if got := s.UnitIndex(b); got != want[s.UnitOf(b)] {
			t.Fatalf("bit %d (unit %s): UnitIndex = %d, want %d", b, s.UnitOf(b), got, want[s.UnitOf(b)])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Alloc after UnitIndex did not panic")
		}
	}()
	s.Alloc("rob", "rob.count", 3)
}

// TestUnitIndexConcurrent reads the unit index of a space no one froze
// from several goroutines at once, as parallel sweep workers read a shared
// space's: the first reads build it once, and all agree with UnitOf.
func TestUnitIndexConcurrent(t *testing.T) {
	s := NewSpace()
	for i := range 40 {
		s.Alloc(fmt.Sprintf("u%d", i%7), fmt.Sprintf("f%d", i), 1+i%5)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range s.NumBits() {
				if got, want := s.UnitIndex(b), int(s.UnitOf(b)[1]-'0'); got != want {
					t.Errorf("bit %d: UnitIndex = %d, want %d", b, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := s.NumUnits(); n != 7 {
		t.Errorf("NumUnits = %d, want 7", n)
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	// Fields straddling word boundaries must round-trip correctly.
	s := NewSpace()
	var fields []Field
	widths := []int{1, 7, 32, 64, 5, 33, 64, 13, 64, 3}
	for i, w := range widths {
		fields = append(fields, s.Alloc("u", string(rune('a'+i)), w))
	}
	st := s.NewState()
	rng := rand.New(rand.NewSource(1))
	want := make([]uint64, len(fields))
	for iter := 0; iter < 200; iter++ {
		i := rng.Intn(len(fields))
		v := rng.Uint64()
		fields[i].Set(st, v)
		if fields[i].Width() < 64 {
			v &= 1<<uint(fields[i].Width()) - 1
		}
		want[i] = v
		for j, f := range fields {
			if got := f.Get(st); got != want[j] {
				t.Fatalf("iter %d: field %d = %#x, want %#x", iter, j, got, want[j])
			}
		}
	}
}

func TestGetSigned(t *testing.T) {
	s := NewSpace()
	f := s.Alloc("u", "x", 16)
	g := s.Alloc("u", "y", 64)
	st := s.NewState()
	f.Set(st, 0xFFFF)
	if got := f.GetSigned(st); got != -1 {
		t.Fatalf("GetSigned(0xFFFF) = %d, want -1", got)
	}
	f.Set(st, 0x7FFF)
	if got := f.GetSigned(st); got != 32767 {
		t.Fatalf("GetSigned(0x7FFF) = %d, want 32767", got)
	}
	g.Set(st, ^uint64(0))
	if got := g.GetSigned(st); got != -1 {
		t.Fatalf("64-bit GetSigned = %d, want -1", got)
	}
}

func TestFlipBit(t *testing.T) {
	s := NewSpace()
	f := s.Alloc("u", "x", 32)
	st := s.NewState()
	f.Set(st, 0)
	st.FlipBit(f.Offset() + 5)
	if got := f.Get(st); got != 32 {
		t.Fatalf("after flip bit 5: %d, want 32", got)
	}
	st.FlipBit(f.Offset() + 5)
	if got := f.Get(st); got != 0 {
		t.Fatalf("double flip should restore: got %d", got)
	}
}

func TestStateCloneEqualReset(t *testing.T) {
	s := NewSpace()
	f := s.Alloc("u", "x", 40)
	st := s.NewState()
	f.Set(st, 0xABCDE12345)
	cl := st.Clone()
	if !st.Equal(cl) {
		t.Fatal("clone not equal")
	}
	cl.FlipBit(3)
	if st.Equal(cl) {
		t.Fatal("flip not detected by Equal")
	}
	other := s.NewState()
	other.CopyFrom(st)
	if !st.Equal(other) {
		t.Fatal("CopyFrom not equal")
	}
	st.Reset()
	if f.Get(st) != 0 {
		t.Fatal("Reset did not zero")
	}
}

// TestAllocInert checks the inert declaration: exactly the bits of fields
// allocated with AllocInert report Inert, across a word boundary, and
// EqualExceptInert ignores those bits and no others.
func TestAllocInert(t *testing.T) {
	s := NewSpace()
	s.Alloc("u", "live0", 60)
	s.AllocInert("u", "dead0", 10) // bits 60..69 straddle words 0 and 1
	s.Alloc("u", "live1", 3)
	s.AllocInert("u", "dead1", 1)
	inert := map[int]bool{73: true}
	for bit := 60; bit < 70; bit++ {
		inert[bit] = true
	}
	a := s.NewState()
	for bit := 0; bit < s.NumBits(); bit++ {
		if s.Inert(bit) != inert[bit] {
			t.Fatalf("Inert(%d) = %v, want %v", bit, s.Inert(bit), inert[bit])
		}
		b := a.Clone()
		b.FlipBit(bit)
		if s.EqualExceptInert(a, b) != inert[bit] {
			t.Fatalf("EqualExceptInert after flipping bit %d = %v, want %v", bit, !inert[bit], inert[bit])
		}
	}
}

// Property: a double flip of any bit is the identity, and a single flip
// changes exactly the targeted field.
func TestFlipProperty(t *testing.T) {
	s := NewSpace()
	var fields []Field
	for i := 0; i < 10; i++ {
		fields = append(fields, s.Alloc("u", string(rune('a'+i)), 17))
	}
	prop := func(vals [10]uint16, bitSel uint16) bool {
		st := s.NewState()
		for i, f := range fields {
			f.Set(st, uint64(vals[i])|uint64(vals[i]&1)<<16)
		}
		before := st.Clone()
		bit := int(bitSel) % s.NumBits()
		st.FlipBit(bit)
		// Exactly one field differs, and it is the one containing bit.
		name, _ := s.NameOf(bit)
		diffs := 0
		for i, f := range fields {
			if f.Get(st) != f.Get(before) {
				diffs++
				fname := string(rune('a' + i))
				if fname != name {
					return false
				}
			}
		}
		if diffs != 1 {
			return false
		}
		st.FlipBit(bit)
		return st.Equal(before)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFieldGetSet(b *testing.B) {
	s := NewSpace()
	f := s.Alloc("u", "x", 33) // straddles a word boundary after padding
	s.Alloc("u", "pad", 40)
	g := s.Alloc("u", "y", 32)
	st := s.NewState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Set(st, uint64(i))
		g.Set(st, f.Get(st))
	}
}
