package ooo

import (
	"clear/internal/ff"
	"clear/internal/tcode"
)

// derived is what the core's latch words determine and Step would
// otherwise re-derive every cycle: the translation of the instruction word
// in each fetch-buffer, ROB and issue-queue entry, and for each source of
// the issue queue an index from tag values to the entries whose tag latch
// holds them. It follows the rule the in-order core's stageDecodes follows
// (DESIGN.md §11):
//
//   - it lives beside uLatches, not in it;
//   - deriveLatches derives it whole from the latch words, and Reset,
//     Restore and the test codec's unpackU call it; FlipBits re-derives
//     the entries a strike touches (deriveEntry);
//   - Step writes each decode where it writes its instruction word, and
//     moves an entry's tag-index bit where it writes its tag latch;
//   - CopyStateFrom copies it;
//   - Snapshot, Matches and DiffFrom never see it.
//
// The last rule is sound because equal latch words give equal derived
// state up to pointer identity: two cores holding the same word may hold
// different pointers to equal translations (the per-PC table's, or two
// entries of the decode memo when a miss recompiled the word in between),
// so comparing the pointers would call equal states different.
type derived struct {
	fb  [FBSize]*tcode.DInst  // translation of fbInst[i]
	rob [RobSize]*tcode.DInst // translation of robInst[i]
	iq  [IQSize]*tcode.DInst  // translation of iqInst[i]

	// s1Holds[t] has bit i set when iqS1Tag[i] holds t, whatever entry
	// i's valid and ready bits say; s2Holds likewise for iqS2Tag. A
	// wakeup of tag t visits only s1Holds[t] &^ iqS1Rdy & iqValid.
	s1Holds, s2Holds [1 << tagBits]uint16
}

// tagBits is the width of the issue queue's tag latches (sched0.s1tag,
// sched0.s2tag).
const tagBits = 6

// entryKind names the derived entry that reads a latch word.
type entryKind uint8

const (
	entryNone  entryKind = iota // no derived state reads the word
	entryFB                     // fb[idx], from fbInst[idx]
	entryROB                    // rob[idx], from robInst[idx]
	entryIQ                     // iq[idx], from iqInst[idx]
	entryS1Tag                  // bit idx of s1Holds, from iqS1Tag[idx]
	entryS2Tag                  // bit idx of s2Holds, from iqS2Tag[idx]
)

// entry is one derived entry: its kind and the structure entry index.
type entry struct {
	kind entryKind
	idx  uint8
}

// entryOf maps every flip-flop of the space to the derived entry that
// reads its latch word, so FlipBits re-derives only what a strike touches.
var entryOf = func() []entry {
	r := &sharedRegs
	e := make([]entry, sharedSpace.NumBits())
	mark := func(k entryKind, i int, f ff.Field) {
		for b := f.Offset(); b < f.Offset()+f.Width(); b++ {
			e[b] = entry{k, uint8(i)}
		}
	}
	for i := 0; i < FBSize; i++ {
		mark(entryFB, i, r.fbInst[i])
	}
	for i := 0; i < RobSize; i++ {
		mark(entryROB, i, r.robInst[i])
	}
	for i := 0; i < IQSize; i++ {
		mark(entryIQ, i, r.iqInst[i])
		mark(entryS1Tag, i, r.iqS1Tag[i])
		mark(entryS2Tag, i, r.iqS2Tag[i])
	}
	return e
}()

// deriveLatches derives the whole derived state from the latch words.
func (c *Core) deriveLatches() {
	u := &c.u
	for i := range FBSize {
		c.d.fb[i] = c.dec(uint32(u.fbPC[i]), uint32(u.fbInst[i]))
	}
	for i := range RobSize {
		c.d.rob[i] = c.dec(uint32(u.robPC[i]), uint32(u.robInst[i]))
	}
	c.d.s1Holds, c.d.s2Holds = [1 << tagBits]uint16{}, [1 << tagBits]uint16{}
	for i := range IQSize {
		c.d.iq[i] = c.iqDec(i)
		c.d.s1Holds[u.iqS1Tag[i]] |= 1 << i
		c.d.s2Holds[u.iqS2Tag[i]] |= 1 << i
	}
}

// iqDec returns the translation of issue-queue entry i's instruction word,
// which the machine associates with the PC of the entry's ROB entry.
func (c *Core) iqDec(i int) *tcode.DInst {
	u := &c.u
	return c.dec(uint32(u.robPC[u.iqRob[i]%RobSize]), uint32(u.iqInst[i]))
}

// deriveEntry derives entry e from its latch word, as deriveLatches does
// for every entry. A tag entry is added to its tag's bucket, so it must be
// in no other: FlipBits takes it out before it strikes (untag).
func (c *Core) deriveEntry(e entry) {
	u := &c.u
	i := int(e.idx)
	switch e.kind {
	case entryFB:
		c.d.fb[i] = c.dec(uint32(u.fbPC[i]), uint32(u.fbInst[i]))
	case entryROB:
		c.d.rob[i] = c.dec(uint32(u.robPC[i]), uint32(u.robInst[i]))
	case entryIQ:
		c.d.iq[i] = c.iqDec(i)
	case entryS1Tag:
		c.d.s1Holds[u.iqS1Tag[i]] |= 1 << i
	case entryS2Tag:
		c.d.s2Holds[u.iqS2Tag[i]] |= 1 << i
	}
}

// untag takes a tag entry out of its tag's bucket.
func (c *Core) untag(e entry) {
	u := &c.u
	i := int(e.idx)
	switch e.kind {
	case entryS1Tag:
		c.d.s1Holds[u.iqS1Tag[i]] &^= 1 << i
	case entryS2Tag:
		c.d.s2Holds[u.iqS2Tag[i]] &^= 1 << i
	}
}
