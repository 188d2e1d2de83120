package ff

import (
	"fmt"
	"strings"
	"testing"
)

// latchHandles and latchWords are a small valid pair of declarations: the
// words cover each width class (a bool, a narrow and a full-width word, an
// array), and the handles are allocated in an order unlike the structs' to
// show that names, not positions, match them.
type latchHandles struct {
	pc    Field
	valid Field
	cnt   Field
	regs  [3]Field
}

type latchWords struct {
	pc    uint32
	valid bool
	cnt   uint8
	regs  [3]uint64
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
	s.Freeze()
	return s, h
}

// wordsOf decodes a packed image into latchWords through the handles.
func wordsOf(h latchHandles, st *State) latchWords {
	w := latchWords{pc: uint32(h.pc.Get(st)), valid: h.valid.Get(st) == 1, cnt: uint8(h.cnt.Get(st))}
	for i, f := range h.regs {
		w.regs[i] = f.Get(st)
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
