package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"clear/internal/analysis"
	"clear/internal/core"
	"clear/internal/inject"
	"clear/internal/sweep"
)

// digest is a canonical SHA-256 over the outputs of one iteration. Every
// value is written in a fixed order with a fixed width (integers as 64-bit
// little-endian, floats by their IEEE-754 bits, strings length-prefixed), so
// two iterations digest equal exactly when their results are identical,
// whatever the worker count or the order campaigns finished in.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) int(v int64)   { d.u64(uint64(v)) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) str(s string)  { d.u64(uint64(len(s))); d.h.Write([]byte(s)) }
func (d *digest) sum() string   { return hex.EncodeToString(d.h.Sum(nil)) }

func (d *digest) flag(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

// section separates the kinds of value a digest covers, so a result can
// never digest equal to some other sequence of values of another kind.
func (d *digest) section(s string) { d.str("§" + s) }

// result digests a campaign result: its configuration, nominal run, every
// per-flip-flop tally, the totals, and the detection-latency sums.
func (d *digest) result(r *inject.Result) {
	d.section("result")
	c := r.Config
	d.int(int64(c.Core))
	d.str(c.Bench)
	d.str(c.Tag)
	d.int(int64(c.SamplesPerFF))
	d.u64(c.Seed)
	d.int(int64(r.NomCycles))
	d.int(r.NomRet)
	d.int(int64(len(r.PerFF)))
	for _, f := range r.PerFF {
		d.u64(uint64(f.N) | uint64(f.OMM)<<16 | uint64(f.UT)<<32 | uint64(f.Hang)<<48)
		d.u64(uint64(f.ED))
	}
	t := r.Totals
	for _, v := range []int{t.N, t.Vanished, t.OMM, t.UT, t.Hang, t.ED} {
		d.int(int64(v))
	}
	d.int(r.DetLatSum)
	d.int(r.DetN)
}

// sweepResult digests a sweep's ranked rows and its Pareto frontier.
func (d *digest) sweepResult(r *sweep.Result) {
	d.section("sweep")
	d.int(int64(len(r.Rows)))
	for _, row := range r.Rows {
		d.str(row.Name)
		d.f64(row.SDCImp)
		d.f64(row.DUEImp)
		d.f64(row.Energy)
		d.f64(row.Area)
		d.flag(row.Met)
		d.int(int64(row.Benches))
		d.int(int64(row.Failed))
	}
	d.frontier(r.Frontier)
}

func (d *digest) frontier(pts []core.ParetoPoint) {
	d.section("frontier")
	d.int(int64(len(pts)))
	for _, p := range pts {
		d.str(p.Name)
		d.f64(p.Improvement)
		d.f64(p.Energy)
	}
}

// units digests a unit AVF ranking in rank order.
func (d *digest) units(us []analysis.UnitAVF) {
	d.section("units")
	d.int(int64(len(us)))
	for _, u := range us {
		d.str(u.Unit)
		for _, v := range []int{u.Bits, u.N, u.Vanished, u.OMM, u.UT, u.Hang, u.ED} {
			d.int(int64(v))
		}
		for _, v := range []float64{u.AVF, u.SDCFrac, u.DUEFrac, u.CILo, u.CIHi} {
			d.f64(v)
		}
	}
}

// insts digests an instruction ranking in rank order.
func (d *digest) insts(is []analysis.InstContribution) {
	d.section("insts")
	d.int(int64(len(is)))
	for _, c := range is {
		d.u64(uint64(c.PC))
		d.u64(uint64(c.Word))
		d.flag(c.InRange)
		d.int(int64(c.N))
		d.int(int64(c.SDC))
		d.int(int64(c.DUE))
		d.f64(c.Share)
	}
}
