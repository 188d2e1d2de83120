package inject

import (
	"encoding/binary"
	"reflect"
	"testing"

	"clear/internal/ino"
	"clear/internal/ooo"
	"clear/internal/prog"
	"clear/internal/tcode"
)

// setCompiled flips compiled execution for one test and restores the
// default afterwards. Cores capture the mode at Reset, so each test must
// construct its cores after selecting the mode.
func setCompiled(t testing.TB, on bool) {
	t.Helper()
	tcode.SetEnabled(on)
	t.Cleanup(func() { tcode.SetEnabled(true) })
}

// mirrorFieldBits returns the flip-flop bit indices of named pipeline
// structures that live behind each core's unpacked latch mirror — ROB, issue
// queue and store queue entries on the OoO core, execute/memory latches on
// the InO core. Injections targeted here exercise the mirror's
// pack/unpack boundary rather than arbitrary bits.
func mirrorFieldBits(t testing.TB, kind CoreKind) []int {
	t.Helper()
	names := map[CoreKind][]string{
		InO: {"e.op1", "e.ctrl.inst", "w.s.icc"},
		OoO: {"rob.head.reg", "rob.inst5", "rob.done7", "rob.count.reg",
			"sched0.s1val3", "sched0.valid2", "sched0.rob9",
			"mem.stq.address2", "mem.stq.count.reg", "mem.stq.valid0"},
	}[kind]
	sp := ino.Space()
	if kind == OoO {
		sp = ooo.Space()
	}
	var bits []int
	for _, n := range names {
		bs := sp.BitsOf(n)
		if len(bs) == 0 {
			t.Fatalf("%v: field %q missing from space", kind, n)
		}
		bits = append(bits, bs...)
	}
	return bits
}

// FuzzThreadedEquivalence is the property pinning compiled execution to the
// decode-switch interpreter: for an arbitrary program image (any byte
// soup — valid instructions, illegal opcodes, accidental control flow) and
// an arbitrary single-bit injection, both execution modes must produce
// identical architectural state traces, cycle for cycle, on both cores.
func FuzzThreadedEquivalence(f *testing.F) {
	// Seed with an empty image, structured noise, and a halt-terminated
	// fragment; the fuzzer mutates from there.
	f.Add([]byte{}, uint32(3), uint32(0))
	f.Add([]byte{0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint32(40), uint32(5))
	f.Add([]byte{
		0x00, 0x00, 0x20, 0x48, // addi r1, r1, ...
		0x00, 0x00, 0x40, 0x10, // mix of R-type fields
		0x01, 0x00, 0x20, 0x74, // sw-ish
		0x00, 0x00, 0x00, 0x04, // halt
	}, uint32(100), uint32(2))
	f.Fuzz(func(t *testing.T, data []byte, bitSeed, cycleSeed uint32) {
		const maxWords = 32
		n := len(data) / 4
		if n > maxWords {
			n = maxWords
		}
		words := make([]uint32, n)
		for i := 0; i < n; i++ {
			words[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		p := &prog.Program{Name: "fuzz", Words: words, MemWords: 16}

		for _, kind := range []CoreKind{InO, OoO} {
			setCompiled(t, false)
			ci := NewCore(kind, p)
			setCompiled(t, true)
			ct := NewCore(kind, p)

			mirrorBits := mirrorFieldBits(t, kind)
			bit := int(bitSeed) % SpaceBits(kind)
			flipCycle := int(cycleSeed % 256)
			// obsCycle crosses the mirror's observation boundary mid-run:
			// Snapshot/Matches while the mirror is live, identity Restore,
			// a flip targeted into a mirrored ROB/IQ/SQ/pipeline field, and
			// (InO) FlushRecover — applied to both modes in lockstep.
			obsCycle := int((bitSeed ^ cycleSeed) % 256)
			const maxCycles = 512
			for cyc := 0; cyc < maxCycles; cyc++ {
				if cyc == flipCycle {
					ci.State().FlipBit(bit)
					ct.State().FlipBit(bit)
				}
				ci.Step()
				ct.Step()
				if !ci.State().Equal(ct.State()) {
					t.Fatalf("%v: flip-flop state diverged at cycle %d (bit=%d flipCycle=%d, %d words)",
						kind, cyc+1, bit, flipCycle, n)
				}
				if ci.Done() != ct.Done() || ci.Cycles() != ct.Cycles() || ci.Retired() != ct.Retired() {
					t.Fatalf("%v: run bookkeeping diverged at cycle %d: interp (done=%v cyc=%d ret=%d) vs compiled (done=%v cyc=%d ret=%d)",
						kind, cyc+1, ci.Done(), ci.Cycles(), ci.Retired(), ct.Done(), ct.Cycles(), ct.Retired())
				}
				if ci.Done() {
					break
				}
				if cyc == obsCycle {
					ckI, ckT := ci.Snapshot(), ct.Snapshot()
					if !ct.Matches(ckI) || !ci.Matches(ckT) {
						t.Fatalf("%v: cross-mode Matches failed at observation cycle %d", kind, cyc+1)
					}
					ci.Restore(ckI)
					ct.Restore(ckT)
					mb := mirrorBits[int(bitSeed>>8)%len(mirrorBits)]
					ci.State().FlipBit(mb)
					ct.State().FlipBit(mb)
					if kind == InO {
						ci.(interface{ FlushRecover() }).FlushRecover()
						ct.(interface{ FlushRecover() }).FlushRecover()
					}
					if !ci.State().Equal(ct.State()) {
						t.Fatalf("%v: state diverged across observation boundary at cycle %d (mirror bit %d)",
							kind, cyc+1, mb)
					}
				}
			}
			if !reflect.DeepEqual(ci.Output(), ct.Output()) {
				t.Fatalf("%v: output streams diverged: %v vs %v", kind, ci.Output(), ct.Output())
			}
			// Full-state check: flip-flops, register file, memory, status,
			// and core-specific SRAM structures (predictors, cache tags).
			if !ct.Matches(ci.Snapshot()) {
				t.Fatalf("%v: full simulation state diverged after %d cycles", kind, ci.Cycles())
			}
		}
	})
}

// TestThreadedNominalEquivalence pins the fault-free case explicitly: the
// tiny program's full run must agree between modes on both cores, including
// the final result and cycle count.
func TestThreadedNominalEquivalence(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		setCompiled(t, false)
		ri := NewCore(kind, p).Run(100000)
		setCompiled(t, true)
		rc := NewCore(kind, p).Run(100000)
		if !reflect.DeepEqual(ri, rc) {
			t.Fatalf("%v: nominal results differ: interp %+v vs compiled %+v", kind, ri, rc)
		}
	}
}

// TestCompiledCampaignEquivalence asserts fixed-seed campaigns are
// bit-identical between execution modes on both cores: same per-flip-flop
// statistics, same totals, same detection latencies. The two-samples config
// doubles the density of warm-start Restore/Matches/FlipBit crossings over
// the OoO mirror's observation boundary.
func TestCompiledCampaignEquivalence(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		for _, cfg := range []Config{
			{Core: kind, Bench: "tiny", SamplesPerFF: 1, Seed: 0xBEEF},
			{Core: kind, Bench: "tiny", SamplesPerFF: 2, Seed: 0x7E57},
		} {
			setCompiled(t, true)
			rc, err := NewInjector().Run(cfg, p, nil)
			if err != nil {
				t.Fatalf("%v compiled: %v", kind, err)
			}
			setCompiled(t, false)
			ri, err := NewInjector().Run(cfg, p, nil)
			if err != nil {
				t.Fatalf("%v interpreted: %v", kind, err)
			}
			if !reflect.DeepEqual(rc, ri) {
				t.Fatalf("%v (samples=%d): campaign results differ between execution modes:\ncompiled   %+v\ninterpreted %+v",
					kind, cfg.SamplesPerFF, rc.Totals, ri.Totals)
			}
		}
	}
}

// TestMirrorObservationBoundaries walks both cores through every observation
// point while the compiled path's unpacked mirror is live: mid-run Snapshot,
// cross-mode Matches, identity Restore, bit flips targeted into mirrored
// ROB/IQ/SQ (OoO) and pipeline-latch (InO) fields between materializations,
// and FlushRecover on the in-order core — asserting the interpreter twin
// never diverges.
func TestMirrorObservationBoundaries(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		setCompiled(t, false)
		ci := NewCore(kind, p)
		setCompiled(t, true)
		ct := NewCore(kind, p)

		mirrorBits := mirrorFieldBits(t, kind)
		const maxCycles = 400
		for cyc := 1; cyc <= maxCycles && !ci.Done(); cyc++ {
			ci.Step()
			ct.Step()
			if !ci.State().Equal(ct.State()) {
				t.Fatalf("%v: state diverged at cycle %d", kind, cyc)
			}
			switch {
			case cyc%32 == 0: // observation boundary: snapshot + identity restore
				ckI, ckT := ci.Snapshot(), ct.Snapshot()
				if !ct.Matches(ckI) {
					t.Fatalf("%v: compiled core does not match interpreter snapshot at cycle %d", kind, cyc)
				}
				if !ci.Matches(ckT) {
					t.Fatalf("%v: interpreter does not match compiled snapshot at cycle %d", kind, cyc)
				}
				ci.Restore(ckI)
				ct.Restore(ckT)
			case cyc%13 == 0: // inject into a mirrored structure mid-run
				mb := mirrorBits[(cyc/13)%len(mirrorBits)]
				ci.State().FlipBit(mb)
				ct.State().FlipBit(mb)
			case kind == InO && cyc%47 == 0: // flush recovery with mirror live
				ci.(interface{ FlushRecover() }).FlushRecover()
				ct.(interface{ FlushRecover() }).FlushRecover()
			}
		}
		if !ct.Matches(ci.Snapshot()) {
			t.Fatalf("%v: full state diverged after observation-boundary walk", kind)
		}
	}
}

// BenchmarkCampaignModes measures the full campaign loop in both execution
// modes on both cores — the before/after numbers behind BENCH_7.json and
// the CI gate that compiled mode must not be slower.
func BenchmarkCampaignModes(b *testing.B) {
	p := tinyProgram(b)
	for _, kind := range []CoreKind{InO, OoO} {
		for _, mode := range []struct {
			name string
			on   bool
		}{{"interpreted", false}, {"compiled", true}} {
			b.Run(kind.String()+"/"+mode.name, func(b *testing.B) {
				setCompiled(b, mode.on)
				cfg := Config{Core: kind, Bench: "tiny", SamplesPerFF: 1, Seed: 0xC1EA5}
				for i := 0; i < b.N; i++ {
					if _, err := NewInjector().Run(cfg, p, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
