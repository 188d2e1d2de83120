package ff

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// latchHandles and latchWords are a small valid pair of declarations: the
// words cover each width class (a bool, a narrow and a full-width word, an
// array, and a mask word holding an array of 1-bit fields below its top
// bits), and the handles are allocated in an order unlike the structs' to
// show that names, not positions, match them.
type latchHandles struct {
	pc    Field
	valid Field
	cnt   Field
	regs  [3]Field
	flags [5]Field
}

type latchWords struct {
	pc    uint32
	valid bool
	cnt   uint8
	regs  [3]uint64
	flags uint8 // element j in bit j; bits 5..7 hold no space bit
}

func newLatchPair() (*Space, latchHandles) {
	s := NewSpace()
	var h latchHandles
	for i := range h.regs {
		h.regs[i] = s.Alloc("rf", fmt.Sprintf("rf.r%d", i), 40+8*i)
	}
	h.cnt = s.Alloc("ctl", "ctl.cnt", 3)
	h.pc = s.Alloc("fetch", "f.pc", 32)
	h.valid = s.Alloc("ctl", "ctl.valid", 1)
	for i := range h.flags {
		h.flags[i] = s.Alloc("ctl", fmt.Sprintf("ctl.flag%d", i), 1)
	}
	s.Freeze()
	return s, h
}

// wordsOf decodes a packed image into latchWords through the handles.
func wordsOf(h latchHandles, st *State) latchWords {
	w := latchWords{pc: uint32(h.pc.Get(st)), valid: h.valid.Get(st) == 1, cnt: uint8(h.cnt.Get(st))}
	for i, f := range h.regs {
		w.regs[i] = f.Get(st)
	}
	for j, f := range h.flags {
		w.flags |= uint8(f.Get(st)) << j
	}
	return w
}

// TestLatchesCoverEveryBitOnce flips each bit of the valid pair's space,
// alone and on top of every bit flipped before it, and requires the words
// to equal the packed image with the same bits flipped: each bit lands in
// its own word at its own position, and a second flip cancels the first.
func TestLatchesCoverEveryBitOnce(t *testing.T) {
	s, h := newLatchPair()
	m := NewLatches[latchWords](s, &h)
	st := s.NewState()
	var all latchWords
	for bit := range s.NumBits() {
		one := s.NewState()
		one.FlipBit(bit)
		var u latchWords
		m.Flip(&u, bit)
		if want := wordsOf(h, one); u != want {
			name, _ := s.NameOf(bit)
			t.Fatalf("bit %d (%s): Flip gives %+v, want %+v", bit, name, u, want)
		}
		if m.Flip(&u, bit); u != (latchWords{}) {
			t.Fatalf("bit %d: a second Flip leaves %+v", bit, u)
		}
		st.FlipBit(bit)
		m.Flip(&all, bit)
		if want := wordsOf(h, st); all != want {
			t.Fatalf("bits 0..%d: Flip gives %+v, want %+v", bit, all, want)
		}
	}
}

// TestNewLatchesPanics requires the constructor to refuse each way the two
// declarations can disagree, naming the field at fault.
func TestNewLatchesPanics(t *testing.T) {
	cases := []struct {
		name, want string
		build      func()
	}{
		{"handle with no word", "extra", func() {
			s := NewSpace()
			h := struct{ pc, extra Field }{s.Alloc("u", "u.pc", 32), s.Alloc("u", "u.extra", 4)}
			NewLatches[struct{ pc uint32 }](s, h)
		}},
		{"array length mismatch", "regs", func() {
			s := NewSpace()
			var h struct{ regs [3]Field }
			for i := range h.regs {
				h.regs[i] = s.Alloc("u", fmt.Sprintf("u.r%d", i), 8)
			}
			NewLatches[struct{ regs [2]uint64 }](s, h)
		}},
		{"word narrower than its field", "u.pc", func() {
			s := NewSpace()
			h := struct{ pc Field }{s.Alloc("u", "u.pc", 32)}
			NewLatches[struct{ pc uint16 }](s, h)
		}},
		{"bool for a wide field", "u.cnt", func() {
			s := NewSpace()
			h := struct{ cnt Field }{s.Alloc("u", "u.cnt", 3)}
			NewLatches[struct{ cnt bool }](s, h)
		}},
		{"bit no handle covers", "u.tail", func() {
			s := NewSpace()
			h := struct{ head Field }{s.Alloc("u", "u.head", 8)}
			s.Alloc("u", "u.tail", 8)
			NewLatches[struct{ head uint8 }](s, h)
		}},
		{"word with no handle", "spare", func() {
			s := NewSpace()
			h := struct{ pc Field }{s.Alloc("u", "u.pc", 32)}
			NewLatches[struct{ pc, spare uint32 }](s, h)
		}},
		{"bit two handles cover", "handle b", func() {
			s := NewSpace()
			a := s.Alloc("u", "u.a", 8)
			h := struct{ a, b Field }{a, a}
			s.Alloc("u", "u.b", 8)
			NewLatches[struct{ a, b uint8 }](s, h)
		}},
		{"signed word", "u.pc", func() {
			s := NewSpace()
			h := struct{ pc Field }{s.Alloc("u", "u.pc", 32)}
			NewLatches[struct{ pc int32 }](s, h)
		}},
		{"multi-bit handle in a mask word", "flags[1] (field u.f1, 2 bits)", func() {
			s := NewSpace()
			h := struct{ flags [3]Field }{[3]Field{s.Alloc("u", "u.f0", 1), s.Alloc("u", "u.f1", 2), s.Alloc("u", "u.f2", 1)}}
			NewLatches[struct{ flags uint8 }](s, h)
		}},
		{"more elements than the mask word's bits", "flags has 9 elements", func() {
			s := NewSpace()
			var h struct{ flags [9]Field }
			for i := range h.flags {
				h.flags[i] = s.Alloc("u", fmt.Sprintf("u.f%d", i), 1)
			}
			NewLatches[struct{ flags uint8 }](s, h)
		}},
		{"1-bit array in a bool", "flags", func() {
			s := NewSpace()
			var h struct{ flags [2]Field }
			for i := range h.flags {
				h.flags[i] = s.Alloc("u", fmt.Sprintf("u.f%d", i), 1)
			}
			NewLatches[struct{ flags bool }](s, h)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q does not name %q", msg, tc.want)
				}
			}()
			tc.build()
		})
	}
}

// imageOf packs latchWords into a state of the valid pair's space through
// the handles: the oracle's codec, independent of the latch map.
func imageOf(s *Space, h latchHandles, w latchWords) *State {
	st := s.NewState()
	h.pc.Set(st, uint64(w.pc))
	if w.valid {
		h.valid.Set(st, 1)
	}
	h.cnt.Set(st, uint64(w.cnt))
	for i, f := range h.regs {
		f.Set(st, w.regs[i])
	}
	for j, f := range h.flags {
		f.Set(st, uint64(w.flags>>j&1))
	}
	return st
}

// equalExceptRef is EqualExcept's oracle: it compares the packed images
// of a and b bit by bit over the space, setting aside the bits skip
// accepts, and the bits of each word above its field's width or its mask's
// elements directly.
func equalExceptRef(s *Space, h latchHandles, a, b latchWords, skip func(bit int) bool) bool {
	ia, ib := imageOf(s, h, a), imageOf(s, h, b)
	for bit := range s.NumBits() {
		if ia.Bit(bit) != ib.Bit(bit) && !skip(bit) {
			return false
		}
	}
	return a.cnt>>3 == b.cnt>>3 && a.flags>>5 == b.flags>>5 && a.regs[0]>>40 == b.regs[0]>>40 &&
		a.regs[1]>>48 == b.regs[1]>>48 && a.regs[2]>>56 == b.regs[2]>>56
}

// TestEqualExcept pins EqualExcept on the valid pair: identical structs,
// one difference in a skipped and in an unskipped bit, differences spread
// over several words, a bool word, a mask word, and the bits that hold no
// space bit — a word's bits above its field's width or its mask's
// elements, and a padding byte — which are differences whatever skip says.
func TestEqualExcept(t *testing.T) {
	s, h := newLatchPair()
	m := NewLatches[latchWords](s, &h)
	var base latchWords
	base.pc, base.cnt, base.regs, base.flags = 0x1234, 5, [3]uint64{7, 1 << 40, 3}, 0b10110
	none := func(int) bool { return false }
	all := func(int) bool { return true }
	only := func(bits ...int) func(int) bool {
		return func(bit int) bool {
			for _, b := range bits {
				if b == bit {
					return true
				}
			}
			return false
		}
	}
	flipped := func(bits ...int) latchWords {
		u := base
		for _, b := range bits {
			m.Flip(&u, b)
		}
		return u
	}
	pcBit, validBit, flagBit := h.pc.Offset()+9, h.valid.Offset(), h.flags[3].Offset()
	spread := []int{h.regs[0].Offset() + 3, h.regs[1].Offset() + 47, h.regs[2].Offset(), h.cnt.Offset() + 2,
		h.flags[0].Offset(), flagBit, pcBit}
	padded := base
	pad := unsafe.Offsetof(padded.cnt) + 1
	if pad >= unsafe.Offsetof(padded.regs) {
		t.Fatal("latchWords lost its padding byte")
	}
	(*[unsafe.Sizeof(padded)]byte)(unsafe.Pointer(&padded))[pad] = 1
	wide := base
	wide.cnt |= 1 << 3
	aboveMask := base
	aboveMask.flags |= 1 << 5
	cases := []struct {
		name string
		b    latchWords
		skip func(int) bool
		want bool
	}{
		{"identical", base, none, true},
		{"skipped bit", flipped(pcBit), only(pcBit), true},
		{"unskipped bit", flipped(pcBit), only(pcBit + 1), false},
		{"spread, all skipped", flipped(spread...), only(spread...), true},
		{"spread, one not skipped", flipped(spread...), only(spread[:len(spread)-1]...), false},
		{"bool word skipped", flipped(validBit), only(validBit), true},
		{"bool word not skipped", flipped(validBit), none, false},
		{"mask word bit skipped", flipped(flagBit), only(flagBit), true},
		{"mask word bit not skipped", flipped(flagBit), only(h.flags[4].Offset()), false},
		{"bit above a field's width", wide, all, false},
		{"bit above a mask's elements", aboveMask, all, false},
		{"padding byte", padded, all, false},
	}
	for _, tc := range cases {
		if got := m.EqualExcept(&base, &tc.b, tc.skip); got != tc.want {
			t.Errorf("%s: EqualExcept = %v, want %v", tc.name, got, tc.want)
		}
		if got := m.EqualExcept(&tc.b, &base, tc.skip); got != tc.want {
			t.Errorf("%s, operands swapped: EqualExcept = %v, want %v", tc.name, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { m.EqualExcept(&base, &cases[3].b, cases[3].skip) }); n != 0 {
		t.Errorf("EqualExcept allocates %v times per call", n)
	}

	// A struct over several equalBlock spans: differences in its first and
	// last blocks are both found.
	type bigWords struct{ regs [100]uint64 }
	bs := NewSpace()
	var bh struct{ regs [100]Field }
	for i := range bh.regs {
		bh.regs[i] = bs.Alloc("rf", fmt.Sprintf("rf.r%d", i), 64)
	}
	bm := NewLatches[bigWords](bs, &bh)
	var x, y bigWords
	first, last := bh.regs[0].Offset()+5, bh.regs[99].Offset()+63
	bm.Flip(&y, first)
	bm.Flip(&y, last)
	if !bm.EqualExcept(&x, &y, only(first, last)) {
		t.Error("several blocks: both differences skipped, EqualExcept = false")
	}
	if bm.EqualExcept(&x, &y, only(first)) || bm.EqualExcept(&x, &y, only(last)) {
		t.Error("several blocks: one difference not skipped, EqualExcept = true")
	}
}

// FuzzEqualExcept compares EqualExcept with its bit-by-bit oracle on
// latchWords decoded from the fuzz bytes, b differing from a in the bits
// the flip bytes name (0xFF sets a bit above cnt's width instead, and 0xFE
// one above the flags mask's elements), and skip accepting the bits whose
// index mod 64 is set in mask.
func FuzzEqualExcept(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint64(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0, 64, 150, 179}, ^uint64(0))
	f.Add([]byte{0xAA, 0x55}, []byte{3, 70, 0xFF}, uint64(0x0F0F))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 7}, []byte{147, 179, 146}, uint64(1<<19|1<<51|1<<18))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0x15}, []byte{180, 184}, uint64(1<<52|1<<56))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0x0A}, []byte{182, 0xFE}, ^uint64(0))
	s, h := newLatchPair()
	m := NewLatches[latchWords](s, &h)
	f.Fuzz(func(t *testing.T, data, flips []byte, mask uint64) {
		word := func(i int) uint64 {
			var buf [8]byte
			if i*8 < len(data) {
				copy(buf[:], data[i*8:])
			}
			return binary.LittleEndian.Uint64(buf[:])
		}
		a := latchWords{pc: uint32(word(0)), valid: word(0)>>32&1 != 0, cnt: uint8(word(0)>>40) & 7,
			regs:  [3]uint64{word(1) & (1<<40 - 1), word(2) & (1<<48 - 1), word(3) & (1<<56 - 1)},
			flags: uint8(word(0)>>48) & 0x1F}
		b := a
		for _, d := range flips {
			switch d {
			case 0xFF:
				b.cnt ^= 0x80
				continue
			case 0xFE:
				b.flags ^= 0x80
				continue
			}
			m.Flip(&b, int(d)%s.NumBits())
		}
		skip := func(bit int) bool { return mask>>(uint(bit)&63)&1 != 0 }
		want := equalExceptRef(s, h, a, b, skip)
		if got := m.EqualExcept(&a, &b, skip); got != want {
			t.Fatalf("EqualExcept(%+v, %+v) = %v, oracle says %v", a, b, got, want)
		}
	})
}

// requireDiffer fails t unless Differ(a, b) answers a != b from hint, and
// leaves a hint that, when the structs differ, names a word in which they
// differ in a field's bits.
func requireDiffer(t *testing.T, m *Latches[latchWords], a, b *latchWords, hint int, what string) {
	t.Helper()
	h := hint
	if got, want := m.Differ(a, b, &h), *a != *b; got != want {
		t.Fatalf("%s, hint %d: Differ = %v, != says %v", what, hint, got, want)
	}
	if *a != *b && (uint(h) >= uint(len(m.live)) || !m.wordDiffers(a, b, h)) {
		t.Fatalf("%s, hint %d: Differ leaves hint %d, which names no differing word", what, hint, h)
	}
}

// TestDiffer pins Differ to != on the valid pair for every hint in range
// and hints below, above and far outside it: identical structs, a
// difference in each word (a pc bit, the bool, a mask bit, a bit above a
// field's width, each regs word, the flags word), differences in two
// words, whose first word the hint must learn, and a difference only in
// padding, which != ignores and so must Differ, also when the hint names
// the padded word.
func TestDiffer(t *testing.T) {
	s, h := newLatchPair()
	m := NewLatches[latchWords](s, &h)
	if n := len(m.live); n != int(unsafe.Sizeof(latchWords{})/8) {
		t.Fatalf("%d live masks for a %d-byte struct of 8-byte words", n, unsafe.Sizeof(latchWords{}))
	}
	var base latchWords
	base.pc, base.cnt, base.regs, base.flags = 0x1234, 5, [3]uint64{7, 1 << 40, 3}, 0b10110
	flipped := func(bits ...int) latchWords {
		u := base
		for _, b := range bits {
			m.Flip(&u, b)
		}
		return u
	}
	padded := base
	pad := unsafe.Offsetof(padded.cnt) + 1
	(*[unsafe.Sizeof(padded)]byte)(unsafe.Pointer(&padded))[pad] = 0xA5
	wide := base
	wide.cnt |= 1 << 6
	cases := []struct {
		name string
		b    latchWords
	}{
		{"identical", base},
		{"pc bit", flipped(h.pc.Offset() + 31)},
		{"bool", flipped(h.valid.Offset())},
		{"mask bit", flipped(h.flags[4].Offset())},
		{"bit above a field's width", wide},
		{"regs[0]", flipped(h.regs[0].Offset())},
		{"regs[1]", flipped(h.regs[1].Offset() + 47)},
		{"regs[2]", flipped(h.regs[2].Offset() + 9)},
		{"regs[2] and the flags word", flipped(h.regs[2].Offset()+9, h.flags[0].Offset())},
		{"padding only", padded},
	}
	words := len(m.live)
	hints := []int{-1, words, words + 7, -1 << 62, 1<<62 - 1}
	for w := range words {
		hints = append(hints, w)
	}
	for _, tc := range cases {
		for _, hint := range hints {
			requireDiffer(t, m, &base, &tc.b, hint, tc.name)
			requireDiffer(t, m, &tc.b, &base, hint, tc.name+", operands swapped")
		}
	}
	two := flipped(h.regs[0].Offset()+1, h.regs[2].Offset()+1)
	hint := -1
	if !m.Differ(&base, &two, &hint) || hint != int(unsafe.Offsetof(base.regs)/8) {
		t.Errorf("differences in regs[0] and regs[2]: hint %d, want regs[0]'s word %d", hint, unsafe.Offsetof(base.regs)/8)
	}
	if n := testing.AllocsPerRun(10, func() {
		hint := -1
		m.Differ(&base, &two, &hint)
	}); n != 0 {
		t.Errorf("Differ allocates %v times per call", n)
	}
}

// FuzzDiffer pins Differ to != on latchWords decoded from the fuzz bytes
// as FuzzEqualExcept decodes them, b differing from a in the bits the flip
// bytes name (0xFF sets a bit above cnt's width, 0xFE one above the flags
// mask's elements, and 0xFD a padding byte), from the fuzz-chosen hint and
// again from the hint the first call leaves.
func FuzzDiffer(f *testing.F) {
	f.Add([]byte{}, []byte{}, int64(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0, 64, 150, 179}, int64(-1))
	f.Add([]byte{0xAA, 0x55}, []byte{3, 70, 0xFF}, int64(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0x0A}, []byte{182, 0xFE}, int64(1<<40))
	f.Add([]byte{7}, []byte{0xFD}, int64(0))
	s, h := newLatchPair()
	m := NewLatches[latchWords](s, &h)
	f.Fuzz(func(t *testing.T, data, flips []byte, hint int64) {
		word := func(i int) uint64 {
			var buf [8]byte
			if i*8 < len(data) {
				copy(buf[:], data[i*8:])
			}
			return binary.LittleEndian.Uint64(buf[:])
		}
		a := latchWords{pc: uint32(word(0)), valid: word(0)>>32&1 != 0, cnt: uint8(word(0)>>40) & 7,
			regs:  [3]uint64{word(1) & (1<<40 - 1), word(2) & (1<<48 - 1), word(3) & (1<<56 - 1)},
			flags: uint8(word(0)>>48) & 0x1F}
		b := a
		for _, d := range flips {
			switch d {
			case 0xFF:
				b.cnt ^= 0x80
			case 0xFE:
				b.flags ^= 0x80
			case 0xFD:
				(*[unsafe.Sizeof(b)]byte)(unsafe.Pointer(&b))[unsafe.Offsetof(b.cnt)+1] ^= 0x3C
			default:
				m.Flip(&b, int(d)%s.NumBits())
			}
		}
		hn := int(hint)
		requireDiffer(t, m, &a, &b, hn, "fuzz")
		m.Differ(&a, &b, &hn)
		requireDiffer(t, m, &a, &b, hn, "fuzz, learned hint")
	})
}
