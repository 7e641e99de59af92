package taint

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"chaser/internal/tcg"
)

// refShadow is the shadow memory as it was before the page cache and the
// word-wide masks: one map lookup per byte operation, one byte at a time. It
// is the reference the model test below holds Shadow to, so it stays as it
// was written.
type refShadow struct {
	regs         [tcg.NumMRegs]uint64
	pages        map[uint64]*Page
	liveRegs     int
	taintedBytes int64
	highWater    int64
	fired        int // clean→live transitions
}

func newRefShadow() *refShadow { return &refShadow{pages: make(map[uint64]*Page)} }

func (s *refShadow) reset() {
	*s = refShadow{pages: make(map[uint64]*Page), fired: s.fired}
}

func (s *refShadow) clone() *refShadow {
	cp := *s
	cp.pages = make(map[uint64]*Page, len(s.pages))
	for base, p := range s.pages {
		pp := *p
		cp.pages[base] = &pp
	}
	return &cp
}

func (s *refShadow) setRegMask(r tcg.MReg, mask uint64) {
	switch prev := s.regs[r]; {
	case prev == 0 && mask != 0:
		s.liveRegs++
		if s.liveRegs == 1 && s.taintedBytes == 0 {
			s.fired++
		}
	case prev != 0 && mask == 0:
		s.liveRegs--
	}
	s.regs[r] = mask
}

func (s *refShadow) memMask8(addr uint64) uint8 {
	p := s.pages[addr&^(PageSize-1)]
	if p == nil {
		return 0
	}
	return p.masks[addr&(PageSize-1)]
}

func (s *refShadow) setMemMask8(addr uint64, mask uint8) {
	base, off := addr&^(PageSize-1), addr&(PageSize-1)
	if mask == 0 {
		p := s.pages[base]
		if p == nil {
			return
		}
		if p.masks[off] != 0 {
			p.masks[off] = 0
			p.count--
			s.taintedBytes--
			if p.count == 0 {
				delete(s.pages, base)
			}
		}
		return
	}
	p := s.pages[base]
	if p == nil {
		p = &Page{}
		s.pages[base] = p
	}
	if p.masks[off] == 0 {
		p.count++
		s.taintedBytes++
		if s.taintedBytes == 1 && s.liveRegs == 0 {
			s.fired++
		}
		if s.taintedBytes > s.highWater {
			s.highWater = s.taintedBytes
		}
	}
	p.masks[off] = mask
}

func (s *refShadow) memMask64(addr uint64) uint64 {
	var mask uint64
	for i := uint64(0); i < 8; i++ {
		mask |= uint64(s.memMask8(addr+i)) << (8 * i)
	}
	return mask
}

func (s *refShadow) setMemMask64(addr, mask uint64) {
	var b [8]uint8
	binary.LittleEndian.PutUint64(b[:], mask)
	s.setMemRangeMasks(addr, b[:])
}

func (s *refShadow) setMemRangeMasks(addr uint64, masks []uint8) {
	for i, m := range masks {
		s.setMemMask8(addr+uint64(i), m)
	}
}

func (s *refShadow) clearMemRange(addr, n uint64) {
	for i := uint64(0); i < n; i++ {
		s.setMemMask8(addr+i, 0)
	}
}

func (s *refShadow) bases() []uint64 {
	out := make([]uint64, 0, len(s.pages))
	for b := range s.pages {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// modelPair is a Shadow and the reference it must agree with.
type modelPair struct {
	sh    *Shadow
	ref   *refShadow
	fired int // sh's clean→live callbacks
}

func newModelPair(sh *Shadow, ref *refShadow) *modelPair {
	mp := &modelPair{sh: sh, ref: ref, fired: ref.fired}
	sh.OnFirstTaint(func() { mp.fired++ })
	return mp
}

// check compares the bookkeeping, and with full also every page.
func (mp *modelPair) check(t *testing.T, step int, what string, full bool) {
	t.Helper()
	sh, ref := mp.sh, mp.ref
	if sh.TaintedBytes() != ref.taintedBytes || sh.HighWater() != ref.highWater || mp.fired != ref.fired ||
		sh.Live() != (ref.liveRegs > 0 || ref.taintedBytes > 0) || len(sh.pages) != len(ref.pages) {
		t.Fatalf("step %d (%s): tainted %d/%d high-water %d/%d first-taints %d/%d pages %d/%d (shadow/reference)",
			step, what, sh.TaintedBytes(), ref.taintedBytes, sh.HighWater(), ref.highWater,
			mp.fired, ref.fired, len(sh.pages), len(ref.pages))
	}
	if !full {
		return
	}
	for _, base := range ref.bases() {
		p, rp := sh.pages[base], ref.pages[base]
		if p == nil {
			t.Fatalf("step %d (%s): page %#x dropped, reference holds %d tainted bytes", step, what, base, rp.count)
		}
		if p.count != rp.count || p.masks != rp.masks {
			t.Fatalf("step %d (%s): page %#x differs (count %d/%d)", step, what, base, p.count, rp.count)
		}
	}
}

// TestShadowMatchesByteModel drives Shadow and the byte-at-a-time reference
// with the same seeded operation sequences and demands identical masks,
// TaintedBytes, HighWater, page set and first-taint firings after every step.
// Pages are chosen to collide in an 8-entry direct-mapped cache (the vm's
// TLB), addresses to sit on word, odd and page-straddling offsets, and masks
// to mix zero and non-zero bytes, so words gain, lose, swap and keep tainted
// bytes.
func TestShadowMatchesByteModel(t *testing.T) {
	pageNums := []uint64{0x20000, 0x20001, 0x20008, 0x20010, 0x7ffe0, 0x7ffe8, 0x10003}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		addr := func() uint64 {
			base := pageNums[rng.Intn(len(pageNums))] * PageSize
			switch rng.Intn(4) {
			case 0:
				return base + uint64(rng.Intn(4))*8 // a few hot words
			case 1:
				return base + PageSize - uint64(1+rng.Intn(9)) // at and across the page end
			default:
				return base + uint64(rng.Intn(64))
			}
		}
		mask64 := func() uint64 {
			var m uint64
			for i := 0; i < 8; i++ {
				if rng.Intn(3) != 0 {
					m |= uint64(1+rng.Intn(255)) << (8 * i)
				}
			}
			switch rng.Intn(5) {
			case 0:
				return 0
			case 1:
				return m | 0x0101010101010101
			}
			return m
		}
		mp := newModelPair(NewShadow(), newRefShadow())
		for step := 0; step < 6000; step++ {
			var what string
			switch op := rng.Intn(100); {
			case op < 35:
				what = "SetMemMask64"
				a, m := addr(), mask64()
				mp.sh.SetMemMask64(a, m)
				mp.ref.setMemMask64(a, m)
			case op < 55:
				what = "SetMemMask8"
				a, m := addr(), uint8(rng.Intn(3)*rng.Intn(256))
				mp.sh.SetMemMask8(a, m)
				mp.ref.setMemMask8(a, m)
			case op < 65:
				what = "SetMemRangeMasks"
				a := addr()
				masks := make([]uint8, rng.Intn(40))
				for i := range masks {
					masks[i] = uint8(rng.Intn(2) * rng.Intn(256))
				}
				mp.sh.SetMemRangeMasks(a, masks)
				mp.ref.setMemRangeMasks(a, masks)
			case op < 75:
				what = "ClearMemRange"
				a, n := addr(), uint64(rng.Intn(2*PageSize))
				mp.sh.ClearMemRange(a, n)
				mp.ref.clearMemRange(a, n)
			case op < 87:
				what = "MemMask64"
				a := addr()
				if got, want := mp.sh.MemMask64(a), mp.ref.memMask64(a); got != want {
					t.Fatalf("seed %d step %d: MemMask64(%#x) = %#x, reference %#x", seed, step, a, got, want)
				}
				if got, want := mp.sh.MemMask8(a), mp.ref.memMask8(a); got != want {
					t.Fatalf("seed %d step %d: MemMask8(%#x) = %#x, reference %#x", seed, step, a, got, want)
				}
			case op < 95:
				what = "SetRegMask"
				r, m := tcg.MReg(rng.Intn(4)), uint64(rng.Intn(2))
				mp.sh.SetRegMask(r, m)
				mp.ref.setRegMask(r, m)
			case op < 98:
				// Carry on with the copy; the original must be unharmed by
				// what the copy does next, which the next Clone of a later
				// seed's run would not show — so check it now.
				what = "Clone"
				orig := mp
				mp = newModelPair(orig.sh.Clone(), orig.ref.clone())
				a := addr()
				mp.sh.SetMemMask64(a, ^uint64(0))
				mp.ref.setMemMask64(a, ^uint64(0))
				orig.check(t, step, "original after its clone was written", true)
			default:
				what = "Reset"
				mp.sh.Reset()
				mp.ref.reset()
			}
			mp.check(t, step, what, step%64 == 0)
		}
		mp.check(t, 6000, "end", true)
	}
}
