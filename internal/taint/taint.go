// Package taint implements DECAF-style lightweight bitwise dynamic taint
// analysis for the Chaser virtual machine.
//
// Taint is tracked at bit granularity: every micro-register carries a 64-bit
// shadow mask and every guest memory byte carries an 8-bit shadow mask, so an
// injected single-bit flip starts life as a single shadow bit and widens only
// as the fault propagates. Propagation rules are enforced per TCG micro-op
// (see rules.go), including the floating-point extension the paper adds on
// top of DECAF's integer rules.
package taint

import (
	"encoding/binary"
	"math/bits"
	"sort"
	"sync/atomic"
	"unsafe"

	"chaser/internal/tcg"
)

// PageSize is the granularity of shadow-memory allocation.
const PageSize = 4096

// Page is the shadow of one guest page: a mask per byte. A Shadow holds a
// page only while some byte of it is tainted.
type Page struct {
	masks [PageSize]uint8
	// count is the number of bytes in this page with a non-zero mask,
	// maintained incrementally so tainted-byte sampling (paper Fig. 7) is
	// O(1) per query.
	count int
}

// Mask64 returns the masks of the eight bytes at offset off, which must be
// at most PageSize-8, as MemMask64 assembles them.
func (p *Page) Mask64(off uint64) uint64 { return binary.LittleEndian.Uint64(p.masks[off : off+8]) }

// Mask8 returns the mask of the byte at offset off.
func (p *Page) Mask8(off uint64) uint8 { return p.masks[off] }

// Shadow holds the complete taint state of one guest process: shadow
// registers and shadow memory.
//
// The zero value is not ready for use; call NewShadow.
type Shadow struct {
	regs  [tcg.NumMRegs]uint64
	pages map[uint64]*Page
	// stamp names the present state of pages, for callers that keep what
	// PageAt returned (the vm's TLB): it changes whenever a page is added or
	// dropped, and no two shadows ever show the same stamp (stamps). A kept
	// page is what PageAt would return as long as Stamp is what it was when
	// PageAt returned it.
	stamp uint64
	// free keeps the last few pages dropPage removed, for newPage to hand
	// out again: a word that is tainted, cleaned and tainted again (a spill
	// slot, a loop's accumulator) would otherwise cost a 4 KiB allocation
	// each time round. A page is dropped when its count reaches zero, so its
	// masks are already all zero and reuse needs no clearing. The list starts
	// empty after Reset and in a Clone.
	free  [maxFreePages]*Page
	nfree int
	// taintedRegs has bit r set while micro-register r has a non-zero mask,
	// maintained by SetRegMask: Live is O(1) — it gates the execution engine's
	// fast path at every TB entry — and so is RegsTainted, the test the
	// interpreter's taint copy makes in front of every propagation arm.
	taintedRegs uint64
	// taintedBytes is the global count of guest memory bytes whose shadow
	// mask is non-zero; highWater is its per-run peak (telemetry).
	taintedBytes int64
	highWater    int64
	// onFirstTaint fires once per clean→live transition (the taint birth the
	// provenance layer dates a fault's life from). The check lives inside the
	// transition branches of SetRegMask/SetMemMask8, so the propagation hot
	// paths pay nothing for it while taint is already live.
	onFirstTaint func()
	// pagesWear decides whether Recycle clears pages or makes it anew.
	pagesWear MapWear
}

// maxFreePages bounds the free list, and with it what a Shadow keeps beyond
// its tainted pages, to 16 KiB.
const maxFreePages = 4

// stamps hands out blocks of stampBlock stamps, one to each new shadow and
// another to a shadow that used its block up: a shadow's stamps only grow,
// and no other shadow draws from its block, so a stamp is never shown twice.
// The first block starts at stampBlock: zero is the stamp of the zero Shadow
// alone, which holds no page.
var stamps atomic.Uint64

const stampBlock = 1 << 20

// freshStamp returns the first stamp of a new block.
func freshStamp() uint64 { return stamps.Add(stampBlock) }

// restamp moves the stamp on, to a new block when this one is used up.
func (s *Shadow) restamp() {
	if s.stamp++; s.stamp%stampBlock == 0 {
		s.stamp = freshStamp()
	}
}

// NewShadow creates an empty taint state.
func NewShadow() *Shadow {
	return &Shadow{pages: make(map[uint64]*Page), stamp: freshStamp()}
}

// Reset clears all taint.
func (s *Shadow) Reset() {
	s.regs = [tcg.NumMRegs]uint64{}
	s.pages, s.pagesWear = make(map[uint64]*Page), MapWear{}
	s.restamp()
	s.free, s.nfree = [maxFreePages]*Page{}, 0
	s.taintedRegs = 0
	s.taintedBytes = 0
	s.highWater = 0
}

// Recycle empties the shadow for the machine it is handed to next: it is
// then Pristine, as after NewShadow. Unlike Reset it keeps its page table
// (unless that grew past maxRecycledPages, or runs far shorter than an
// earlier one kept recycling it: MapWear) and, zeroed, as many of its pages
// as the free list holds. The first-taint callback is dropped with the
// machine it closed over.
func (s *Shadow) Recycle() {
	for _, p := range s.pages {
		if s.nfree == maxFreePages {
			break
		}
		*p = Page{}
		s.free[s.nfree] = p
		s.nfree++
	}
	pages, wear := s.pages, s.pagesWear
	if len(pages) > maxRecycledPages || wear.Remake(len(pages)) {
		pages, wear = make(map[uint64]*Page), MapWear{}
	} else {
		clear(pages)
	}
	s.restamp()
	*s = Shadow{pages: pages, stamp: s.stamp, free: s.free, nfree: s.nfree, pagesWear: wear}
}

// maxRecycledPages bounds the page table Recycle keeps: a map never shrinks,
// so one that held many pages is let go.
const maxRecycledPages = 64

// MapWear is what a recycled Go map remembers to decide whether clearing it
// still pays: the most entries it held since it was made, and how many
// releases in a row have left it oversized. The shadow's page table keeps
// one, and so do vm.Arena's page and chain tables.
//
// A map whose high water is more than MapWearSlack times what each of
// MapWearStreak releases in a row left in it is made anew. Clearing a Go map
// costs the capacity the longest run since it was made grew it to: after one
// long fault tail, the thousands of short forked runs of an in-process LUD
// sweep each cleared chain tables sized for it (runtime.mapclear 1.7% of the
// sweep's CPU; 0.8% with this rule). A new map costs the next long run the
// growth back, so one short run is not enough: made anew at the first, the
// tables of 40-run matvec and bfs shards, whose run lengths alternate,
// allocated 4% more per shard; after sixteen in a row, nothing more.
type MapWear struct{ high, short int }

// MapWearSlack is MapWear's factor and MapWearStreak its streak.
const (
	MapWearSlack  = 8
	MapWearStreak = 16
)

// Saw records that the map held n entries.
func (w *MapWear) Saw(n int) { w.high = max(w.high, n) }

// Remake reports whether a map that a run left use entries in is made anew
// instead of cleared. A map that never held more than eight entries is a
// single group, as cheap to clear as a new one.
func (w *MapWear) Remake(use int) bool {
	w.Saw(use)
	if w.high <= max(8, MapWearSlack*use) {
		w.short = 0
		return false
	}
	if w.short++; w.short < MapWearStreak {
		return false
	}
	*w = MapWear{}
	return true
}

// Clone returns a deep copy of the taint state: shadow registers, shadow
// pages, and the incrementally maintained counts. The onFirstTaint callback
// is NOT copied — it closes over the originating machine, and a forked
// machine installs its own. Fork-point snapshots use Clone so forks mutate
// taint independently of the captured prefix.
func (s *Shadow) Clone() *Shadow {
	cp := &Shadow{
		regs:         s.regs,
		pages:        make(map[uint64]*Page, len(s.pages)),
		stamp:        freshStamp(),
		taintedRegs:  s.taintedRegs,
		taintedBytes: s.taintedBytes,
		highWater:    s.highWater,
	}
	for base, p := range s.pages {
		pp := *p
		cp.pages[base] = &pp
	}
	return cp
}

// Pristine reports whether the shadow never held taint since creation or the
// last Reset: nothing live, no page, a high-water mark of zero. Such a shadow
// is indistinguishable from NewShadow's, so a snapshot keeps none.
func (s *Shadow) Pristine() bool {
	return !s.Live() && len(s.pages) == 0 && s.highWater == 0
}

// Bytes returns the heap the shadow holds: itself and its pages.
func (s *Shadow) Bytes() int64 {
	return int64(unsafe.Sizeof(*s)) + int64(len(s.pages))*int64(unsafe.Sizeof(Page{}))
}

// OnFirstTaint installs a callback invoked whenever the shadow transitions
// from completely clean to live (including again after a Reset or a full
// decay back to clean). A nil callback disables the notification.
func (s *Shadow) OnFirstTaint(fn func()) { s.onFirstTaint = fn }

// RegMask returns the shadow mask of a micro-register.
func (s *Shadow) RegMask(r tcg.MReg) uint64 { return s.regs[r] }

// SetRegMask replaces the shadow mask of a micro-register.
func (s *Shadow) SetRegMask(r tcg.MReg, mask uint64) {
	bit := uint64(1) << (r & 63)
	switch {
	case mask == 0:
		s.taintedRegs &^= bit
	case s.taintedRegs&bit == 0:
		first := !s.Live()
		s.taintedRegs |= bit
		if first && s.onFirstTaint != nil {
			s.onFirstTaint()
		}
	}
	s.regs[r] = mask
}

// RegsTainted reports whether any micro-register of set (bit r stands for
// register r, as in tcg.Op.Regs) carries taint.
func (s *Shadow) RegsTainted(set uint64) bool { return s.taintedRegs&set != 0 }

// Live reports whether any taint exists anywhere — registers or memory: the
// O(1) emptiness check of snapshots (Pristine), output hooks and the
// first-taint callback. The execution engine asks a finer question at each
// block — TaintedBytes, and RegsTainted of the block's footprint — so that a
// block that can touch no taint runs on its taint-free copy.
func (s *Shadow) Live() bool {
	return s.taintedRegs != 0 || s.taintedBytes > 0
}

// AnyRegTainted reports whether any guest-visible register carries taint.
func (s *Shadow) AnyRegTainted() bool { return s.taintedRegs != 0 }

// TaintedBytes returns the number of guest memory bytes currently tainted.
// This is the quantity sampled every 100K instructions for the paper's
// tainted-bytes-in-propagation curves.
func (s *Shadow) TaintedBytes() int64 { return s.taintedBytes }

// HighWater returns the peak tainted-byte count observed since creation (or
// the last Reset) — the fault's maximum memory footprint.
func (s *Shadow) HighWater() int64 { return s.highWater }

// Stamp returns the shadow's stamp (see PageAt).
func (s *Shadow) Stamp() uint64 { return s.stamp }

// PageAt returns the shadow page of the guest page at base, nil when no byte
// of it is tainted. The page's masks are the shadow's own, so they follow
// every later write; which page (if any) is at base stays the same until
// Stamp changes.
func (s *Shadow) PageAt(base uint64) *Page { return s.pages[base] }

// page returns the shadow page covering addr (nil when none exists) and
// addr's offset in it.
func (s *Shadow) page(addr uint64) (*Page, uint64) {
	base := addr &^ (PageSize - 1)
	return s.pages[base], addr - base
}

// setPage puts p (nil: no page) at base in the page table and moves the
// stamp on.
func (s *Shadow) setPage(base uint64, p *Page) {
	if p == nil {
		delete(s.pages, base)
	} else {
		s.pages[base] = p
	}
	s.restamp()
}

// newPage installs an all-zero page at base: one off the free list if there
// is one.
func (s *Shadow) newPage(base uint64) *Page {
	var p *Page
	if s.nfree > 0 {
		s.nfree--
		p, s.free[s.nfree] = s.free[s.nfree], nil
	} else {
		p = &Page{}
	}
	s.setPage(base, p)
	return p
}

// dropPage removes p, whose last tainted byte has just been cleaned, from
// base and keeps it for newPage if there is room.
func (s *Shadow) dropPage(base uint64, p *Page) {
	s.setPage(base, nil)
	if s.nfree < maxFreePages {
		s.free[s.nfree] = p
		s.nfree++
	}
}

// MemMask8 returns the shadow mask of one guest byte.
func (s *Shadow) MemMask8(addr uint64) uint8 {
	p, off := s.page(addr)
	if p == nil {
		return 0
	}
	return p.masks[off]
}

// SetMemMask8 replaces the shadow mask of one guest byte.
func (s *Shadow) SetMemMask8(addr uint64, mask uint8) {
	p, _ := s.page(addr)
	s.SetMemMask8In(p, addr, mask)
}

// SetMemMask8In is SetMemMask8 given p, what PageAt returns for addr's page.
func (s *Shadow) SetMemMask8In(p *Page, addr uint64, mask uint8) {
	off := addr & (PageSize - 1)
	if mask == 0 {
		// Avoid allocating a page just to store zeros.
		if p == nil || p.masks[off] == 0 {
			return
		}
		p.masks[off] = 0
		p.count--
		s.taintedBytes--
		if p.count == 0 {
			s.dropPage(addr-off, p)
		}
		return
	}
	if p == nil {
		p = s.newPage(addr - off)
	}
	if p.masks[off] == 0 {
		p.count++
		s.taintedBytes++
		if s.taintedBytes == 1 && s.taintedRegs == 0 && s.onFirstTaint != nil {
			s.onFirstTaint()
		}
		if s.taintedBytes > s.highWater {
			s.highWater = s.taintedBytes
		}
	}
	p.masks[off] = mask
}

// MemMask64 assembles the 64-bit shadow mask of eight consecutive guest
// bytes at addr (little-endian: byte i supplies mask bits [8i, 8i+8)).
func (s *Shadow) MemMask64(addr uint64) uint64 {
	if s.taintedBytes == 0 {
		return 0
	}
	if off := addr & (PageSize - 1); off <= PageSize-8 {
		// Fast path: all eight bytes in one page.
		p, _ := s.page(addr)
		if p == nil {
			return 0
		}
		return p.Mask64(off)
	}
	var mask uint64
	for i := uint64(0); i < 8; i++ {
		if m := s.MemMask8(addr + i); m != 0 {
			mask |= uint64(m) << (8 * i)
		}
	}
	return mask
}

// SetMemMask64 distributes a 64-bit register shadow mask across eight
// consecutive guest bytes.
func (s *Shadow) SetMemMask64(addr uint64, mask uint64) {
	if mask == 0 && s.taintedBytes == 0 {
		return
	}
	if off := addr & (PageSize - 1); off <= PageSize-8 {
		p, _ := s.page(addr)
		s.SetMemMask64In(p, addr, mask)
		return
	}
	var b [8]uint8
	binary.LittleEndian.PutUint64(b[:], mask)
	s.SetMemRangeMasks(addr, b[:])
}

// SetMemMask64In is SetMemMask64 for eight bytes inside one guest page
// (addr's offset in it at most PageSize-8), given p, what PageAt returns for
// that page.
func (s *Shadow) SetMemMask64In(p *Page, addr uint64, mask uint64) {
	off := addr & (PageSize - 1)
	var old uint64
	if p != nil {
		old = p.Mask64(off)
	}
	if old == mask {
		return
	}
	// The word moves in one store when the byte-at-a-time bookkeeping would
	// only have counted in one direction: the tainted-byte count then passes
	// through no value the totals do not end at, so the high-water mark
	// comes out the same. The first taint of a clean shadow (whose callback
	// sees the count at one) and a word that both gains and loses tainted
	// bytes take the byte path below.
	was, now := nonZeroBytes(old), nonZeroBytes(mask)
	gained, lost := bits.OnesCount64(now&^was), bits.OnesCount64(was&^now)
	if (gained == 0 || lost == 0) && s.Live() {
		if p == nil {
			p = s.newPage(addr - off)
		}
		binary.LittleEndian.PutUint64(p.masks[off:off+8], mask)
		p.count += gained - lost
		s.taintedBytes += int64(gained - lost)
		if s.taintedBytes > s.highWater {
			s.highWater = s.taintedBytes
		}
		if p.count == 0 {
			s.dropPage(addr-off, p)
		}
		return
	}
	var b [8]uint8
	binary.LittleEndian.PutUint64(b[:], mask)
	s.setPageMasks(p, addr, b[:])
}

// nonZeroBytes returns a word with bit 7 of each byte set where that byte of
// x is non-zero.
func nonZeroBytes(x uint64) uint64 {
	const low7 = 0x7f7f7f7f7f7f7f7f
	return ((x&low7 + low7) | x) &^ low7
}

// The range operations below work one shadow page at a time: a page lookup
// per 4 KiB instead of per byte, and an absent page — the common case, taint
// being sparse — costs that lookup and nothing else. MPI hooks hand them
// buffers of up to 64 MiB.

// inPage returns the length of the part of [addr, addr+n) inside addr's page.
func inPage(addr, n uint64) uint64 {
	if room := PageSize - addr&(PageSize-1); n > room {
		return room
	}
	return n
}

// ClearMemRange removes taint from [addr, addr+n).
func (s *Shadow) ClearMemRange(addr, n uint64) {
	for n > 0 && s.taintedBytes > 0 {
		chunk := inPage(addr, n)
		if p, off := s.page(addr); p != nil {
			for i := off; i < off+chunk; i++ {
				if p.masks[i] != 0 {
					p.masks[i] = 0
					p.count--
					s.taintedBytes--
				}
			}
			if p.count == 0 {
				s.dropPage(addr-off, p)
			}
		}
		addr += chunk
		n -= chunk
	}
}

// MemRangeTainted reports whether any byte in [addr, addr+n) is tainted.
func (s *Shadow) MemRangeTainted(addr, n uint64) bool {
	if s.taintedBytes == 0 {
		return false
	}
	for n > 0 {
		chunk := inPage(addr, n)
		if p, off := s.page(addr); p != nil {
			for _, m := range p.masks[off : off+chunk] {
				if m != 0 {
					return true
				}
			}
		}
		addr += chunk
		n -= chunk
	}
	return false
}

// MemRangeMasks copies the per-byte shadow masks of [addr, addr+n). The
// result is the taint-status payload Chaser publishes to the TaintHub for an
// outgoing MPI message buffer.
func (s *Shadow) MemRangeMasks(addr, n uint64) []uint8 {
	out := make([]uint8, n)
	for done := uint64(0); done < n; {
		chunk := inPage(addr+done, n-done)
		if p, off := s.page(addr + done); p != nil {
			copy(out[done:done+chunk], p.masks[off:])
		}
		done += chunk
	}
	return out
}

// SetMemRangeMasks applies per-byte shadow masks to [addr, addr+len(masks)).
// This is how a receiving rank re-marks taint retrieved from the TaintHub.
func (s *Shadow) SetMemRangeMasks(addr uint64, masks []uint8) {
	for len(masks) > 0 {
		chunk := inPage(addr, uint64(len(masks)))
		s.setPageMasks(s.pages[addr&^(PageSize-1)], addr, masks[:chunk])
		addr += chunk
		masks = masks[chunk:]
	}
}

// setPageMasks is SetMemMask8 over a run of bytes inside one page, with the
// same bookkeeping byte for byte: no page is allocated to store zeros, and a
// page left without taint is dropped. p is what PageAt returns for the page.
func (s *Shadow) setPageMasks(p *Page, addr uint64, masks []uint8) {
	off := addr & (PageSize - 1)
	base := addr - off
	for i, mask := range masks {
		switch {
		case p == nil && mask == 0:
			continue
		case p == nil:
			p = s.newPage(base)
		}
		was := p.masks[off+uint64(i)]
		switch {
		case was == 0 && mask != 0:
			p.count++
			s.taintedBytes++
			if s.taintedBytes == 1 && s.taintedRegs == 0 && s.onFirstTaint != nil {
				s.onFirstTaint()
			}
			if s.taintedBytes > s.highWater {
				s.highWater = s.taintedBytes
			}
		case was != 0 && mask == 0:
			p.count--
			s.taintedBytes--
		}
		p.masks[off+uint64(i)] = mask
	}
	if p != nil && p.count == 0 {
		s.dropPage(base, p)
	}
}

// TaintedAddrs returns up to limit tainted byte addresses in ascending
// order (limit <= 0 means no limit). Intended for debugging and tests.
func (s *Shadow) TaintedAddrs(limit int) []uint64 {
	bases := make([]uint64, 0, len(s.pages))
	for b := range s.pages {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	var out []uint64
	for _, b := range bases {
		p := s.pages[b]
		for off, m := range p.masks {
			if m != 0 {
				out = append(out, b+uint64(off))
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

// Compare reports where shadows a and b hold different taint: it returns the
// micro-registers whose masks differ, bit r for register r, and calls mem
// with each run of guest bytes whose masks differ. A nil shadow is a clean
// one.
func Compare(a, b *Shadow, mem func(addr, n uint64)) (regs uint64) {
	if a == nil {
		a = &Shadow{}
	}
	if b == nil {
		b = &Shadow{}
	}
	for r := range a.regs {
		if a.regs[r] != b.regs[r] {
			regs |= 1 << r
		}
	}
	for base, p := range a.pages {
		q := b.pages[base]
		if q == nil {
			q = &cleanPage
		}
		runs(&p.masks, &q.masks, base, mem)
	}
	for base, q := range b.pages {
		if a.pages[base] == nil {
			runs(&cleanPage.masks, &q.masks, base, mem)
		}
	}
	return regs
}

// cleanPage is the shadow of a page with no tainted byte, never written.
var cleanPage Page

// runs calls fn with each run of bytes that differ between a and b, the
// masks of the page at base.
func runs(a, b *[PageSize]uint8, base uint64, fn func(addr, n uint64)) {
	for i := 0; i < PageSize; i++ {
		if a[i] == b[i] {
			continue
		}
		j := i + 1
		for j < PageSize && a[j] != b[j] {
			j++
		}
		fn(base+uint64(i), uint64(j-i))
		i = j
	}
}
