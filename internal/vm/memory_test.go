package vm

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestMemoryMapAndFault(t *testing.T) {
	m := NewMemory()
	m.Map("heap", 0x1000, 0x2000)
	if !m.Mapped(0x1000) || !m.Mapped(0x2fff) {
		t.Error("mapped addresses reported unmapped")
	}
	if m.Mapped(0xfff) || m.Mapped(0x3000) {
		t.Error("unmapped addresses reported mapped")
	}
	if got := m.RegionName(0x1500); got != "heap" {
		t.Errorf("RegionName = %q", got)
	}
	if got := m.RegionName(0x9000); got != "" {
		t.Errorf("RegionName(unmapped) = %q", got)
	}

	_, err := m.Read8(0x500)
	var seg *SegFaultError
	if !errors.As(err, &seg) {
		t.Fatalf("read fault = %v", err)
	}
	if seg.Addr != 0x500 || seg.Write {
		t.Errorf("SegFaultError = %+v", seg)
	}
	err = m.Write8(0x500, 1)
	if !errors.As(err, &seg) || !seg.Write {
		t.Errorf("write fault = %v", err)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	m.Map("r", 0x10000, 0x10000)
	if err := m.Write64(0x10008, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read64(0x10008)
	if err != nil || v != 0x1122334455667788 {
		t.Fatalf("Read64 = %#x, %v", v, err)
	}
	// Little-endian byte order.
	b, err := m.Read8(0x10008)
	if err != nil || b != 0x88 {
		t.Errorf("Read8 = %#x, %v", b, err)
	}
	// Unaligned access works.
	if err := m.Write64(0x10003, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x10003); v != 42 {
		t.Errorf("unaligned Read64 = %d", v)
	}
}

func TestMemoryCrossPage(t *testing.T) {
	m := NewMemory()
	m.Map("r", 0, 3*PageSize)
	addr := uint64(PageSize - 3)
	if err := m.Write64(addr, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read64(addr)
	if err != nil || v != 0xdeadbeefcafef00d {
		t.Errorf("cross-page Read64 = %#x, %v", v, err)
	}
}

func TestMemoryTranslate(t *testing.T) {
	m := NewMemory()
	m.Map("a", 0x10000, PageSize)
	m.Map("b", 0x9_0000, PageSize)
	p1, err := m.Translate(0x10010)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.Translate(0x9_0020)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("distinct pages share a frame")
	}
	if p1%PageSize != 0x10 || p2%PageSize != 0x20 {
		t.Errorf("offsets not preserved: %#x %#x", p1, p2)
	}
	// Same page translates consistently.
	p1b, _ := m.Translate(0x10011)
	if p1b != p1+1 {
		t.Errorf("translate not contiguous within page: %#x vs %#x", p1, p1b)
	}
	if _, err := m.Translate(0x5000_0000); err == nil {
		t.Error("translate of unmapped address succeeded")
	}
}

func TestMemoryBytes(t *testing.T) {
	m := NewMemory()
	m.Map("r", 0x1000, PageSize)
	data := []byte("hello, world")
	if err := m.WriteBytes(0x1004, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBytes(0x1004, uint64(len(data)))
	if err != nil || string(got) != string(data) {
		t.Errorf("ReadBytes = %q, %v", got, err)
	}
	if _, err := m.ReadBytes(0x1000, 2*PageSize); err == nil {
		t.Error("ReadBytes past region succeeded")
	}
	if err := m.WriteBytes(0x1000+PageSize-2, []byte("abcd")); err == nil {
		t.Error("WriteBytes past region succeeded")
	}
}

// Property: a write followed by a read returns the written value, for
// arbitrary in-region addresses and values.
func TestMemoryRoundTripQuick(t *testing.T) {
	m := NewMemory()
	const base, size = 0x2000_0000, 1 << 16
	m.Map("r", base, size)
	f := func(off uint16, v uint64) bool {
		addr := uint64(base) + uint64(off)%(size-8)
		if err := m.Write64(addr, v); err != nil {
			return false
		}
		got, err := m.Read64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLocateMatchesTranslateAndRegionName holds the per-page answer the
// tainted-access path reads (locate) to the two lookups it replaced, on every
// kind of page a guest can touch: data, stack, a heap grown by many small
// allocations the way SysAlloc maps them (each region one page past the
// break), the partly mapped page above the break — whose upper addresses are
// in no region — pages under overlapping regions of different names, and the
// same pages sealed by a snapshot and read or copied through a fork.
func TestLocateMatchesTranslateAndRegionName(t *testing.T) {
	m := NewMemory()
	m.Map("data", 0x10000, 2*PageSize)
	m.Map("stack", 0x7f000, 4*PageSize)
	const heap = 0x200000
	brk := uint64(heap)
	for _, size := range []uint64{24, 4000, 8, 9000, 120} {
		base := brk
		brk += size
		m.Map("heap", base, brk-base+PageSize)
	}
	m.Map("low", 0x400000, PageSize+100) // overlapped from mid-page by a later name
	m.Map("high", 0x400000+PageSize, 2*PageSize)

	var addrs []uint64
	for _, a := range []uint64{
		0x10000, 0x10000 + 2*PageSize - 8, 0x7f000 + 3*PageSize + 17,
		heap, heap + 4095, brk - 1, brk, brk + PageSize - 1,
		0x400000 + PageSize + 50, 0x400000 + PageSize + 200, 0x400000 + 2*PageSize,
	} {
		if err := m.Write8(a, 1); err != nil {
			t.Fatalf("write %#x: %v", a, err)
		}
		page := a &^ (PageSize - 1)
		addrs = append(addrs, a, page, page+PageSize-1, page+PageSize/2)
	}
	check := func(mem *Memory, when string) {
		t.Helper()
		for _, a := range addrs {
			wantP, err := mem.Translate(a)
			if err != nil {
				t.Fatalf("%s: translate %#x: %v", when, a, err)
			}
			if gotP, gotR := mem.locate(a); gotP != wantP || gotR != mem.RegionName(a) {
				t.Errorf("%s: locate(%#x) = %#x %q, want %#x %q", when, a, gotP, gotR, wantP, mem.RegionName(a))
			}
		}
	}
	check(m, "fresh")
	if got := m.RegionName(brk + PageSize + 8); got != "" {
		t.Fatalf("the page above the break should run out of region mid-page, got %q", got)
	}

	fork := NewMemoryFromImage(m.Snapshot())
	check(fork, "fork reading sealed pages")
	check(m, "original after sealing")
	for _, a := range addrs[:len(addrs)/2] {
		if err := fork.Write8(a, 2); err != nil {
			t.Fatal(err)
		}
	}
	check(fork, "fork after copy-on-write")
}
