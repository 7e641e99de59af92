package vm

import (
	"fmt"
	"sync"
	"testing"
)

// TestMemoryCOWIsolation: after a snapshot, the original and any number of
// forks privatize pages on first write and never observe each other's stores.
func TestMemoryCOWIsolation(t *testing.T) {
	m := NewMemory()
	m.Map("r", 0, 4*PageSize)
	for i := uint64(0); i < 4; i++ {
		if err := m.Write64(i*PageSize, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	img := m.Snapshot()

	a := NewMemoryFromImage(img)
	b := NewMemoryFromImage(img)
	if err := a.Write64(0, 1111); err != nil {
		t.Fatal(err)
	}
	if err := b.Write64(0, 2222); err != nil {
		t.Fatal(err)
	}
	if err := m.Write64(0, 3333); err != nil { // the original COWs too
		t.Fatal(err)
	}
	for i, mm := range []*Memory{a, b, m} {
		want := []uint64{1111, 2222, 3333}[i]
		if v, _ := mm.Read64(0); v != want {
			t.Errorf("memory %d: page 0 = %d, want %d", i, v, want)
		}
		// Untouched pages still read the snapshot values.
		for p := uint64(1); p < 4; p++ {
			if v, _ := mm.Read64(p * PageSize); v != 100+p {
				t.Errorf("memory %d: page %d = %d, want %d", i, p, v, 100+p)
			}
		}
		if got := mm.CowCopies(); got != 1 {
			t.Errorf("memory %d: CowCopies = %d, want 1", i, got)
		}
	}
}

// TestMemoryChainedImagesShareUnwrittenPages: an image taken from a fork of an
// earlier image shares every page the fork did not write, and FreshBytes
// charges exactly the others — what a chain of snapshots costs per link.
func TestMemoryChainedImagesShareUnwrittenPages(t *testing.T) {
	m := NewMemory()
	m.Map("r", 0, 8*PageSize)
	for i := uint64(0); i < 4; i++ {
		if err := m.Write64(i*PageSize, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	// pages counts an image's pages, and the ones it does not share, from
	// what Bytes and FreshBytes charge beside the image's own fields.
	pages := func(img *MemImage) (all, fresh int64) {
		return (img.Bytes() - img.ownBytes()) / pageBytes, (img.FreshBytes() - img.ownBytes()) / pageBytes
	}
	if pageBytes < PageSize {
		t.Fatalf("a page costs %d bytes, less than its data", pageBytes)
	}
	first := m.Snapshot()
	if all, fresh := pages(first); all != 4 || fresh != 4 {
		t.Fatalf("first image: %d pages, %d fresh; want both 4", all, fresh)
	}

	f := NewMemoryFromImage(first)
	if err := f.Write64(0, 7); err != nil { // privatizes page 0
		t.Fatal(err)
	}
	if err := f.Write64(8, 8); err != nil { // same page: no second copy
		t.Fatal(err)
	}
	if err := f.Write64(5*PageSize, 9); err != nil { // a new page
		t.Fatal(err)
	}
	if _, err := f.Read64(PageSize); err != nil { // reads share
		t.Fatal(err)
	}
	second := f.Snapshot()
	if all, fresh := pages(second); all != 5 || fresh != 2 {
		t.Errorf("second image: %d pages, %d fresh; want 5, and 2 (one copied page, one new)", all, fresh)
	}
	firstPages := map[uint64]*memPage{}
	for _, ip := range first.pages {
		firstPages[ip.base] = ip.p
	}
	for _, ip := range second.pages {
		if shared := firstPages[ip.base] == ip.p; shared != (ip.base >= PageSize && ip.base < 4*PageSize) {
			t.Errorf("page %#x shared with the first image: %v", ip.base, shared)
		}
	}

	// The first image is untouched, and a second snapshot of the same memory
	// with nothing written in between adds nothing.
	g := NewMemoryFromImage(first)
	if v, _ := g.Read64(0); v != 100 {
		t.Errorf("first image page 0 = %d after its fork wrote, want 100", v)
	}
	if _, fresh := pages(f.Snapshot()); fresh != 0 {
		t.Errorf("unwritten memory's next image: %d fresh pages, want 0", fresh)
	}
}

// TestMemoryTranslateStableAcrossFork: physical addresses assigned before a
// snapshot survive the snapshot, the fork, and the fork's COW copies — the
// invariant that keeps forked propagation-log records bitwise identical to a
// from-scratch run's.
func TestMemoryTranslateStableAcrossFork(t *testing.T) {
	m := NewMemory()
	m.Map("r", 0x1000, 3*PageSize)
	addrs := []uint64{0x1008, 0x1000 + PageSize, 0x1010 + 2*PageSize}
	before := make([]uint64, len(addrs))
	for i, a := range addrs {
		if err := m.Write8(a, byte(i)); err != nil {
			t.Fatal(err)
		}
		pa, err := m.Translate(a)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = pa
	}
	img := m.Snapshot()
	f := NewMemoryFromImage(img)
	for i, a := range addrs {
		if pa, _ := f.Translate(a); pa != before[i] {
			t.Errorf("fork pre-write: Translate(%#x) = %#x, want %#x", a, pa, before[i])
		}
		if err := f.Write8(a, 0xff); err != nil { // privatize
			t.Fatal(err)
		}
		if pa, _ := f.Translate(a); pa != before[i] {
			t.Errorf("fork post-COW: Translate(%#x) = %#x, want %#x", a, pa, before[i])
		}
		if pa, _ := m.Translate(a); pa != before[i] {
			t.Errorf("original: Translate(%#x) = %#x, want %#x", a, pa, before[i])
		}
	}
	// A page first touched after the fork continues the image's frame
	// numbering, as a from-scratch run reaching it would.
	fresh := uint64(0x1000 + 2*PageSize)
	pa1, err := f.Translate(fresh + 4)
	if err != nil {
		t.Fatal(err)
	}
	f2 := NewMemoryFromImage(img)
	pa2, err := f2.Translate(fresh + 4)
	if err != nil {
		t.Fatal(err)
	}
	if pa1 != pa2 {
		t.Errorf("fresh page frames diverge across forks: %#x vs %#x", pa1, pa2)
	}
}

// TestMemoryTLBAfterCOW: a read of a sealed page must not install a TLB entry
// (cached pages are written through directly), and after the COW copy the
// refreshed entry must serve the private page.
func TestMemoryTLBAfterCOW(t *testing.T) {
	m := NewMemory()
	m.Map("r", 0, PageSize)
	if err := m.Write64(0, 7); err != nil {
		t.Fatal(err)
	}
	img := m.Snapshot()
	f := NewMemoryFromImage(img)

	// Read first: shares the sealed page. If this cached the page, the
	// following write would scribble on the snapshot.
	if v, _ := f.Read64(0); v != 7 {
		t.Fatalf("fork read = %d, want 7", v)
	}
	if err := f.Write64(0, 8); err != nil {
		t.Fatal(err)
	}
	if f.CowCopies() != 1 {
		t.Errorf("CowCopies = %d, want 1 (read must not have privatized)", f.CowCopies())
	}
	// TLB now holds the private copy; hits must see the new value while the
	// snapshot (via a second fork) still sees the old one.
	if v, _ := f.Read64(0); v != 8 {
		t.Errorf("post-COW read = %d, want 8", v)
	}
	if v, _ := NewMemoryFromImage(img).Read64(0); v != 7 {
		t.Errorf("snapshot corrupted: read %d, want 7", v)
	}
	// Writes after the copy reuse the private page: no further COW.
	if err := f.Write64(8, 9); err != nil {
		t.Fatal(err)
	}
	if f.CowCopies() != 1 {
		t.Errorf("CowCopies = %d after second write, want 1", f.CowCopies())
	}
}

// TestMemoryCOWStraddle: a store straddling two sealed pages privatizes both.
func TestMemoryCOWStraddle(t *testing.T) {
	m := NewMemory()
	m.Map("r", 0, 2*PageSize)
	if err := m.Write64(PageSize-4, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	img := m.Snapshot()
	f := NewMemoryFromImage(img)
	if err := f.Write64(PageSize-4, 0x8877665544332211); err != nil {
		t.Fatal(err)
	}
	if f.CowCopies() != 2 {
		t.Errorf("CowCopies = %d, want 2 (both straddled pages)", f.CowCopies())
	}
	if v, _ := f.Read64(PageSize - 4); v != 0x8877665544332211 {
		t.Errorf("fork straddle read = %#x", v)
	}
	if v, _ := NewMemoryFromImage(img).Read64(PageSize - 4); v != 0x1122334455667788 {
		t.Errorf("snapshot straddle read = %#x", v)
	}
}

// TestMemoryOverlappingRegions: overlapping maps share the underlying pages —
// an address covered by two regions resolves to one frame and one store.
func TestMemoryOverlappingRegions(t *testing.T) {
	m := NewMemory()
	m.Map("a", 0x1000, 2*PageSize)
	m.Map("b", 0x1000+PageSize, 2*PageSize) // overlaps a's second page
	over := uint64(0x1000 + PageSize + 8)
	if err := m.Write64(over, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(over); v != 42 {
		t.Errorf("overlap read = %d", v)
	}
	if got := m.RegionName(over); got != "a" { // first mapped region wins
		t.Errorf("RegionName = %q", got)
	}
	// The overlap survives snapshot/fork like any other page.
	f := NewMemoryFromImage(m.Snapshot())
	pa1, _ := m.Translate(over)
	pa2, _ := f.Translate(over)
	if pa1 != pa2 {
		t.Errorf("overlap frame unstable across fork: %#x vs %#x", pa1, pa2)
	}
	if err := f.Write64(over, 43); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(over); v != 42 {
		t.Errorf("fork write leaked into original: %d", v)
	}
}

// TestMemoryConcurrentForks hammers one snapshot from many forks at once:
// every fork reads the shared sealed pages and COWs its own copies. Run with
// -race; the sealed pages must never be written by anyone.
func TestMemoryConcurrentForks(t *testing.T) {
	m := NewMemory()
	const pages = 8
	m.Map("r", 0, pages*PageSize)
	for i := uint64(0); i < pages; i++ {
		if err := m.Write64(i*PageSize, i); err != nil {
			t.Fatal(err)
		}
	}
	img := m.Snapshot()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := NewMemoryFromImage(img)
			for round := 0; round < 50; round++ {
				for i := uint64(0); i < pages; i++ {
					v, err := f.Read64(i * PageSize)
					if err != nil {
						errs <- err
						return
					}
					if err := f.Write64(i*PageSize, v+1); err != nil {
						errs <- err
						return
					}
				}
			}
			// Each page started at i and was incremented 50 times.
			for i := uint64(0); i < pages; i++ {
				if v, _ := f.Read64(i * PageSize); v != i+50 {
					errs <- fmt.Errorf("fork %d: page %d = %d, want %d", g, i, v, i+50)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The snapshot itself is untouched.
	check := NewMemoryFromImage(img)
	for i := uint64(0); i < pages; i++ {
		if v, _ := check.Read64(i * PageSize); v != i {
			t.Errorf("snapshot page %d = %d, want %d", i, v, i)
		}
	}
}
