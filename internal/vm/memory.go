package vm

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"chaser/internal/taint"
)

// PageSize is the guest page granularity.
const PageSize = 4096

// SegFaultError reports a guest access outside any mapped region; the VM
// turns it into a SIGSEGV termination, the dominant "OS exception" outcome
// in the paper's fault-injection campaigns.
type SegFaultError struct {
	Addr  uint64
	Write bool
}

func (e *SegFaultError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("vm: segmentation fault: %s at %#x", kind, e.Addr)
}

// memPage is one guest page. A sealed page belongs to an immutable snapshot
// generation: it may be shared read-only by any number of forked address
// spaces and is never written again — a write through any fork (or the
// original) first replaces it with a private copy (copy-on-write). The copy
// keeps the frame number, so physical addresses are stable across
// snapshot/fork and propagation-log records match a from-scratch run bitwise.
type memPage struct {
	data   [PageSize]byte
	frame  uint64 // physical frame number, assigned at first touch
	sealed bool
	// region is the name RegionName gives every address of the page, found
	// once at first touch; mixed marks the rare page it cannot speak for (the
	// partly mapped page above the heap break), whose addresses are looked up
	// one by one. Both are copied, never rewritten, so sealed pages stay
	// read-only.
	region string
	mixed  bool
}

type region struct {
	name       string
	base, size uint64
}

func (r region) contains(addr uint64) bool {
	return addr >= r.base && addr-r.base < r.size
}

// Memory is the paged guest address space. Pages are allocated lazily inside
// explicitly mapped regions; any access outside a mapped region faults.
// Each page receives a physical frame at first touch, giving distinct
// virtual and physical addresses for propagation-log records.
// tlbSize is the number of direct-mapped TLB entries; guests interleave
// stack, data, and a working set of heap pages (a 48x48 float matrix spans
// five), so the size is chosen to keep conflict misses rare rather than
// merely to beat a single-entry cache.
const tlbSize = 8

// tlbEntry caches one page under two tags, each the page's base with the low
// bit set (0 matches no base): read, which loads probe, and write, which
// stores probe. A private page is cached under both. A sealed page is cached
// under its read tag only, so a store to it misses and copies it on write.
//
// An entry also keeps the page's shadow for the taint copy of the
// interpreter: shadow is what the machine's taint.Shadow held for the page
// (nil: no tainted byte) when its stamp was stamp. Filling an entry zeroes
// both; zero is the stamp of no shadow but the zero Shadow (noTaint), which
// holds no page, so the next tainted access to a filled entry reads the
// shadow's page table again.
type tlbEntry struct {
	read, write uint64
	page        *memPage
	stamp       uint64
	shadow      *taint.Page
}

// tlbTag is the tag of the page at base.
func tlbTag(base uint64) uint64 { return base | 1 }

type Memory struct {
	pages     map[uint64]*memPage
	regions   []region
	nextFrame uint64
	// tlb is a direct-mapped translation cache over the page map: the map
	// lookup dominates the interpreter's memory cost without it. A hit on a
	// write tag is always a private page, safe to write through — the
	// interpreter's inlined store paths rely on this; a hit on a read tag
	// may be a sealed page, whose bytes never change. Snapshot seals every
	// page and clears the write tags; a COW copy refreshes the entry.
	tlb [tlbSize]tlbEntry
	// cowCopies counts pages privatized by copy-on-write since creation
	// (telemetry: vm_cow_page_copies_total).
	cowCopies uint64
	// private lists the pages first touched or privatized since creation or
	// the last Snapshot: the pages the next image will not share with the one
	// this Memory was forked from, and the ones its machine's Arena may keep.
	// Snapshot, which seals pages, empties it, so it never holds a sealed one.
	private []*memPage
	// arena hands out the pages the machines of earlier runs left (nil: none).
	arena *Arena
	// pagesWear decides whether empty clears pages or makes it anew.
	pagesWear taint.MapWear
}

// NewMemory creates an empty address space with no mapped regions.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*memPage), nextFrame: 1}
}

// blankPage returns an all-zero private page: one the arena kept, cleared,
// or a new one.
func (m *Memory) blankPage() *memPage {
	if p := m.arena.page(); p != nil {
		clear(p.data[:])
		return p
	}
	return new(memPage)
}

// copyPage returns a private copy of the sealed page p, in a page the arena
// kept (every byte of it overwritten) or a new one.
func (m *Memory) copyPage(p *memPage) *memPage {
	cp := m.arena.page()
	if cp == nil {
		cp = new(memPage)
	}
	cp.data = p.data
	cp.frame, cp.region, cp.mixed = p.frame, p.region, p.mixed
	return cp
}

// lookup returns the cached page for an aligned page base, to be read, or
// nil on a TLB miss. Small enough to inline into every memory accessor. The
// page may be sealed: a hit must not be written through.
func (m *Memory) lookup(base uint64) *memPage {
	e := &m.tlb[(base/PageSize)%tlbSize]
	if e.read == tlbTag(base) {
		return e.page
	}
	return nil
}

// shadowPage returns sh's shadow page for the page at base (nil: none), whose
// TLB entry has just hit: the one the entry keeps while sh's stamp is the one
// it was read under, otherwise read again from sh. An entry filled since, a
// page table changed since and another shadow all show another stamp.
func (m *Memory) shadowPage(base uint64, sh *taint.Shadow) *taint.Page {
	e := &m.tlb[(base/PageSize)%tlbSize]
	if e.stamp != sh.Stamp() {
		e.shadow, e.stamp = sh.PageAt(base), sh.Stamp()
	}
	return e.shadow
}

// lookupWrite returns the cached page for an aligned page base, to be
// written, or nil on a TLB miss: only a page private to this Memory hits.
func (m *Memory) lookupWrite(base uint64) *memPage {
	e := &m.tlb[(base/PageSize)%tlbSize]
	if e.write == tlbTag(base) {
		return e.page
	}
	return nil
}

// Map adds a readable/writable region. Overlapping maps are allowed; lookup
// succeeds if any region covers the address.
func (m *Memory) Map(name string, base, size uint64) {
	m.regions = append(m.regions, region{name: name, base: base, size: size})
}

// Mapped reports whether addr falls inside a mapped region.
func (m *Memory) Mapped(addr uint64) bool {
	for _, r := range m.regions {
		if r.contains(addr) {
			return true
		}
	}
	return false
}

// RegionName returns the name of the mapped region containing addr, or "".
func (m *Memory) RegionName(addr uint64) string {
	for _, r := range m.regions {
		if r.contains(addr) {
			return r.name
		}
	}
	return ""
}

// pageRegion reports what RegionName answers inside the page at base. When
// the first mapped region touching the page covers all of it, that region is
// also the first to contain any address of the page, now and after later
// Maps (which append); otherwise the page is mixed.
func (m *Memory) pageRegion(base uint64) (name string, mixed bool) {
	last := base + PageSize - 1
	for _, r := range m.regions {
		lo, hi := r.contains(base), r.contains(last)
		if lo && hi {
			return r.name, false
		}
		if lo || hi || (r.base > base && r.base <= last) {
			return "", true
		}
	}
	return "", true
}

// locate returns the physical address of addr and the name of its region,
// for an address the guest has just accessed: its page exists, and is
// usually still in the TLB.
func (m *Memory) locate(addr uint64) (paddr uint64, region string) {
	base := addr &^ (PageSize - 1)
	p := m.lookup(base)
	if p == nil {
		if p = m.pages[base]; p == nil {
			return 0, m.RegionName(addr)
		}
	}
	region = p.region
	if p.mixed {
		region = m.RegionName(addr)
	}
	return p.frame*PageSize + addr - base, region
}

// page returns the page holding addr, and addr's offset in it, paging it in
// (or copying it, for a write to a sealed page) as needed; nil outside every
// mapped region.
func (m *Memory) page(addr uint64, write bool) (*memPage, uint64) {
	base := addr &^ (PageSize - 1)
	e := &m.tlb[(base/PageSize)%tlbSize]
	if tag := tlbTag(base); e.write == tag || (!write && e.read == tag) {
		return e.page, addr - base
	}
	p, ok := m.pages[base]
	switch {
	case !ok:
		if !m.Mapped(addr) {
			return nil, 0
		}
		p = m.blankPage()
		p.frame = m.nextFrame
		p.region, p.mixed = m.pageRegion(base)
		m.nextFrame++
		m.private = append(m.private, p)
		m.pages[base] = p
	case p.sealed:
		if !write {
			// Reads share the sealed page: it enters the TLB under its read
			// tag alone, so a store still misses and copies it.
			*e = tlbEntry{read: tlbTag(base), page: p}
			return p, addr - base
		}
		// Copy-on-write: privatize the page, keeping its frame so physical
		// addresses stay stable across snapshot/fork.
		p = m.copyPage(p)
		m.pages[base] = p
		m.cowCopies++
		m.private = append(m.private, p)
	}
	*e = tlbEntry{read: tlbTag(base), write: tlbTag(base), page: p}
	return p, addr - base
}

// MemImage is an immutable snapshot of an address space. All pages it
// references are sealed: forks created from it share them and privatize
// pages on first write. Nothing looks a page up in an image, so it lists them
// rather than mapping them.
type MemImage struct {
	pages     []imagePage
	regions   []region
	nextFrame uint64
	fresh     uint64
}

type imagePage struct {
	base uint64
	p    *memPage
}

// pageBytes is what one page costs on the heap: a memPage's size rounded up
// to the allocator's size class (append rounds a new slice's capacity the
// same way) — 4,864 bytes for 4,096 of data.
var pageBytes = int64(cap(append([]byte(nil), make([]byte, unsafe.Sizeof(memPage{}))...)))

// Bytes returns the heap the image holds: its pages and its own fields.
func (img *MemImage) Bytes() int64 { return int64(len(img.pages))*pageBytes + img.ownBytes() }

// FreshBytes returns the part of Bytes the image does not share with the
// image its Memory was forked from (or with that Memory's previous image):
// the pages privatized or first touched since, and its own fields — what a
// chain of images costs per link.
func (img *MemImage) FreshBytes() int64 { return int64(img.fresh)*pageBytes + img.ownBytes() }

func (img *MemImage) ownBytes() int64 {
	return int64(unsafe.Sizeof(*img)) +
		int64(cap(img.pages))*int64(unsafe.Sizeof(imagePage{})) +
		int64(cap(img.regions))*int64(unsafe.Sizeof(region{}))
}

// Snapshot freezes the current page set into an immutable image. Every page
// becomes sealed — including in this Memory, whose next write to any of them
// will privatize a copy — and the TLB's write tags are cleared so no writable
// pointer to a now-shared page survives. Its read tags stay: a sealed page's
// bytes never change.
func (m *Memory) Snapshot() *MemImage {
	pages := make([]imagePage, 0, len(m.pages))
	for base, p := range m.pages {
		// Pages inherited from an earlier image are already sealed, and
		// forks of that image may be reading them right now: never write
		// the flag again.
		if !p.sealed {
			p.sealed = true
		}
		pages = append(pages, imagePage{base, p})
	}
	for i := range m.tlb {
		m.tlb[i].write = 0
	}
	img := &MemImage{
		pages:     pages,
		regions:   append([]region(nil), m.regions...),
		nextFrame: m.nextFrame,
		fresh:     uint64(len(m.private)),
	}
	clear(m.private)
	m.private = m.private[:0]
	return img
}

// NewMemoryFromImage creates a forked address space sharing the image's
// sealed pages. Writes privatize pages (copy-on-write); new pages continue
// the image's frame numbering, so first-touch order yields the same physical
// addresses a from-scratch run would assign.
func NewMemoryFromImage(img *MemImage) *Memory {
	m := &Memory{pages: make(map[uint64]*memPage, len(img.pages))}
	m.load(img)
	return m
}

// load makes the empty Memory m a fork of img.
func (m *Memory) load(img *MemImage) {
	for _, ip := range img.pages {
		m.pages[ip.base] = ip.p
	}
	m.regions = append(m.regions, img.regions...)
	m.nextFrame = img.nextFrame
}

// empty returns m to a NewMemory's state for the machine it is handed to
// next, keeping its page table (unless that grew past maxRecycledPages, or
// runs far shorter than an earlier one kept emptying it: taint.MapWear) and the
// backing arrays of its region and private-page lists.
func (m *Memory) empty() {
	pages, wear := m.pages, m.pagesWear
	if len(pages) > maxRecycledPages || wear.Remake(len(pages)) {
		pages, wear = make(map[uint64]*memPage), taint.MapWear{}
	} else {
		clear(pages)
	}
	clear(m.private)
	*m = Memory{pages: pages, regions: m.regions[:0], private: m.private[:0], nextFrame: 1, pagesWear: wear}
}

// CowCopies returns the number of pages this Memory privatized via
// copy-on-write.
func (m *Memory) CowCopies() uint64 { return m.cowCopies }

// Translate returns the physical address backing a virtual address, mapping
// the page in if needed. It fails with a SegFaultError outside mapped
// regions.
func (m *Memory) Translate(addr uint64) (uint64, error) {
	p, off := m.page(addr, false)
	if p == nil {
		return 0, &SegFaultError{Addr: addr}
	}
	return p.frame*PageSize + off, nil
}

// Read8 loads one byte.
func (m *Memory) Read8(addr uint64) (uint8, error) {
	v, ok := m.read8(addr)
	if !ok {
		return 0, &SegFaultError{Addr: addr}
	}
	return v, nil
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint64, v uint8) error {
	if !m.write8(addr, v) {
		return &SegFaultError{Addr: addr, Write: true}
	}
	return nil
}

// Read64 loads a 64-bit little-endian word. No alignment is required.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	v, bad, ok := m.read64(addr)
	if !ok {
		return 0, &SegFaultError{Addr: bad}
	}
	return v, nil
}

// Write64 stores a 64-bit little-endian word. No alignment is required.
func (m *Memory) Write64(addr uint64, v uint64) error {
	if bad, ok := m.write64(addr, v); !ok {
		return &SegFaultError{Addr: bad, Write: true}
	}
	return nil
}

// The accessors below are the exported ones without the error, which the
// interpreter turns into a termination that formats its text only when read:
// false for an access outside every mapped region, the word-sized ones with
// the unmapped address it hit.

func (m *Memory) read8(addr uint64) (uint8, bool) {
	base := addr &^ (PageSize - 1)
	if p := m.lookup(base); p != nil {
		return p.data[addr-base], true
	}
	p, off := m.page(addr, false)
	if p == nil {
		return 0, false
	}
	return p.data[off], true
}

func (m *Memory) write8(addr uint64, v uint8) bool {
	base := addr &^ (PageSize - 1)
	if p := m.lookupWrite(base); p != nil {
		p.data[addr-base] = v
		return true
	}
	p, off := m.page(addr, true)
	if p == nil {
		return false
	}
	p.data[off] = v
	return true
}

func (m *Memory) read64(addr uint64) (v, bad uint64, ok bool) {
	base := addr &^ (PageSize - 1)
	if p := m.lookup(base); p != nil && addr-base <= PageSize-8 {
		return binary.LittleEndian.Uint64(p.data[addr-base : addr-base+8]), 0, true
	}
	p, off := m.page(addr, false)
	if p == nil {
		return 0, addr, false
	}
	if off <= PageSize-8 {
		return binary.LittleEndian.Uint64(p.data[off : off+8]), 0, true
	}
	// Page-straddling load: resolve the second page once and stitch the two
	// fragments instead of eight per-byte lookups.
	p2, _ := m.page(base+PageSize, false)
	if p2 == nil {
		return 0, base + PageSize, false
	}
	var buf [8]byte
	k := copy(buf[:], p.data[off:])
	copy(buf[k:], p2.data[:])
	return binary.LittleEndian.Uint64(buf[:]), 0, true
}

func (m *Memory) write64(addr uint64, v uint64) (bad uint64, ok bool) {
	base := addr &^ (PageSize - 1)
	if p := m.lookupWrite(base); p != nil && addr-base <= PageSize-8 {
		binary.LittleEndian.PutUint64(p.data[addr-base:addr-base+8], v)
		return 0, true
	}
	p, off := m.page(addr, true)
	if p == nil {
		return addr, false
	}
	if off <= PageSize-8 {
		binary.LittleEndian.PutUint64(p.data[off:off+8], v)
		return 0, true
	}
	// Page-straddling store: resolve both pages once and split the copy.
	p2, _ := m.page(base+PageSize, true)
	if p2 == nil {
		return base + PageSize, false
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	k := copy(p.data[off:], buf[:])
	copy(p2.data[:8-k], buf[k:])
	return 0, true
}

// ReadBytes copies n bytes starting at addr, chunked per page.
func (m *Memory) ReadBytes(addr, n uint64) ([]byte, error) {
	out := make([]byte, n)
	for done := uint64(0); done < n; {
		p, off := m.page(addr+done, false)
		if p == nil {
			return nil, &SegFaultError{Addr: addr + done}
		}
		done += uint64(copy(out[done:], p.data[off:]))
	}
	return out, nil
}

// WriteBytes copies data into guest memory at addr, chunked per page.
func (m *Memory) WriteBytes(addr uint64, data []byte) error {
	for done := 0; done < len(data); {
		p, off := m.page(addr+uint64(done), true)
		if p == nil {
			return &SegFaultError{Addr: addr + uint64(done), Write: true}
		}
		done += copy(p.data[off:], data[done:])
	}
	return nil
}
