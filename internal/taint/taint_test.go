package taint

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"chaser/internal/tcg"
)

func TestRegMasks(t *testing.T) {
	s := NewShadow()
	if s.AnyRegTainted() {
		t.Error("fresh shadow has tainted regs")
	}
	s.SetRegMask(tcg.GPR0+3, 1<<5)
	if got := s.RegMask(tcg.GPR0 + 3); got != 1<<5 {
		t.Errorf("RegMask = %#x", got)
	}
	if !s.AnyRegTainted() {
		t.Error("AnyRegTainted = false after SetRegMask")
	}
	s.Reset()
	if s.AnyRegTainted() || s.TaintedBytes() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestMemMask8(t *testing.T) {
	s := NewShadow()
	const addr = 0x2000_0123
	s.SetMemMask8(addr, 0x80)
	if got := s.MemMask8(addr); got != 0x80 {
		t.Errorf("MemMask8 = %#x", got)
	}
	if got := s.TaintedBytes(); got != 1 {
		t.Errorf("TaintedBytes = %d, want 1", got)
	}
	// Overwriting with another non-zero mask keeps count at 1.
	s.SetMemMask8(addr, 0x01)
	if got := s.TaintedBytes(); got != 1 {
		t.Errorf("TaintedBytes after overwrite = %d, want 1", got)
	}
	s.SetMemMask8(addr, 0)
	if got := s.TaintedBytes(); got != 0 {
		t.Errorf("TaintedBytes after clear = %d, want 0", got)
	}
	if got := s.MemMask8(addr); got != 0 {
		t.Errorf("MemMask8 after clear = %#x", got)
	}
	// Clearing an untouched address allocates nothing and stays at zero.
	s.SetMemMask8(0x5000_0000, 0)
	if len(s.pages) != 0 {
		t.Errorf("pages = %d, want 0 (zero-store must not allocate)", len(s.pages))
	}
}

func TestMemMask64RoundTrip(t *testing.T) {
	s := NewShadow()
	const addr = 0x2000_0000
	const mask = uint64(0xdead_beef_cafe_0102)
	s.SetMemMask64(addr, mask)
	if got := s.MemMask64(addr); got != mask {
		t.Errorf("MemMask64 = %#x, want %#x", got, mask)
	}
	// Byte layout is little-endian: byte 0 carries bits 0-7.
	if got := s.MemMask8(addr); got != 0x02 {
		t.Errorf("byte0 mask = %#x, want 0x02", got)
	}
	if got := s.MemMask8(addr + 7); got != 0xde {
		t.Errorf("byte7 mask = %#x, want 0xde", got)
	}
	// 7 of 8 bytes have non-zero masks? 0xde,0xad,0xbe,0xef,0xca,0xfe,0x01,0x02: all 8.
	if got := s.TaintedBytes(); got != 8 {
		t.Errorf("TaintedBytes = %d, want 8", got)
	}
	s.SetMemMask64(addr, 0)
	if got := s.TaintedBytes(); got != 0 {
		t.Errorf("TaintedBytes after clear = %d", got)
	}
}

func TestMemMask64CrossesPages(t *testing.T) {
	s := NewShadow()
	addr := uint64(0x2000_1000 - 4) // straddles a page boundary
	s.SetMemMask64(addr, ^uint64(0))
	if got := s.MemMask64(addr); got != ^uint64(0) {
		t.Errorf("cross-page MemMask64 = %#x", got)
	}
	if got := s.TaintedBytes(); got != 8 {
		t.Errorf("TaintedBytes = %d", got)
	}
}

func TestMemRangeHelpers(t *testing.T) {
	s := NewShadow()
	base := uint64(0x3000_0000)
	masks := []uint8{0, 1, 0, 0xff, 0}
	s.SetMemRangeMasks(base, masks)
	if !s.MemRangeTainted(base, 5) {
		t.Error("MemRangeTainted = false")
	}
	if s.MemRangeTainted(base+4, 1) {
		t.Error("untainted tail reported tainted")
	}
	got := s.MemRangeMasks(base, 5)
	for i := range masks {
		if got[i] != masks[i] {
			t.Errorf("mask[%d] = %#x, want %#x", i, got[i], masks[i])
		}
	}
	if got := s.TaintedBytes(); got != 2 {
		t.Errorf("TaintedBytes = %d, want 2", got)
	}
	s.ClearMemRange(base, 5)
	if s.MemRangeTainted(base, 5) || s.TaintedBytes() != 0 {
		t.Error("ClearMemRange did not clear")
	}
}

func TestTaintedAddrs(t *testing.T) {
	s := NewShadow()
	for _, a := range []uint64{0x9000, 0x2000, 0x2005, 0x1_0000} {
		s.SetMemMask8(a, 1)
	}
	addrs := s.TaintedAddrs(0)
	want := []uint64{0x2000, 0x2005, 0x9000, 0x1_0000}
	if len(addrs) != len(want) {
		t.Fatalf("addrs = %v", addrs)
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Errorf("addrs[%d] = %#x, want %#x", i, addrs[i], want[i])
		}
	}
	if got := s.TaintedAddrs(2); len(got) != 2 {
		t.Errorf("limited addrs = %v", got)
	}
}

// Property: tainted-byte accounting matches a brute-force recount after an
// arbitrary sequence of mask stores.
func TestTaintedBytesInvariantQuick(t *testing.T) {
	f := func(ops []struct {
		Off  uint16
		Mask uint8
	}) bool {
		s := NewShadow()
		ref := make(map[uint64]uint8)
		base := uint64(0x2000_0000)
		for _, op := range ops {
			addr := base + uint64(op.Off)
			s.SetMemMask8(addr, op.Mask)
			if op.Mask == 0 {
				delete(ref, addr)
			} else {
				ref[addr] = op.Mask
			}
		}
		if int(s.TaintedBytes()) != len(ref) {
			return false
		}
		for a, m := range ref {
			if s.MemMask8(a) != m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func allFrom(n uint) uint64 { return ^uint64(0) << n }

func TestSmearRules(t *testing.T) {
	tests := []struct {
		name string
		kind tcg.Kind
		m1   uint64
		m2   uint64
		sh   uint64
		want uint64
	}{
		{"xor union", tcg.KXor, 0x0f, 0xf0, 0, 0xff},
		{"and union", tcg.KAnd, 1 << 3, 0, 0, 1 << 3},
		{"add carries up", tcg.KAdd, 1 << 4, 0, 0, allFrom(4)},
		{"sub carries up", tcg.KSub, 0, 1 << 10, 0, allFrom(10)},
		{"add clean", tcg.KAdd, 0, 0, 0, 0},
		{"mul smears all", tcg.KMul, 1 << 63, 0, 0, ^uint64(0)},
		{"div smears all", tcg.KDiv, 0, 1, 0, ^uint64(0)},
		{"shl shifts mask", tcg.KShl, 1 << 2, 0, 3, 1 << 5},
		{"shr shifts mask", tcg.KShr, 1 << 5, 0, 3, 1 << 2},
		{"shl tainted amount", tcg.KShl, 1, 1, 0, ^uint64(0)},
		{"fadd smears", tcg.KFAdd, 1 << 52, 0, 0, ^uint64(0)},
		{"fdiv clean", tcg.KFDiv, 0, 0, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := BinaryMask(tt.kind, tt.m1, tt.m2, tt.sh); got != tt.want {
				t.Errorf("BinaryMask = %#x, want %#x", got, tt.want)
			}
		})
	}
}

func TestImmAndUnaryMasks(t *testing.T) {
	if got := ImmBinaryMask(tcg.KAddI, 1<<8, 42); got != allFrom(8) {
		t.Errorf("KAddI = %#x", got)
	}
	if got := ImmBinaryMask(tcg.KMulI, 1, 3); got != ^uint64(0) {
		t.Errorf("KMulI = %#x", got)
	}
	if got := ImmBinaryMask(tcg.KAddI, 0, 42); got != 0 {
		t.Errorf("clean KAddI = %#x", got)
	}
	if got := UnaryMask(tcg.KMov, 0xabc); got != 0xabc {
		t.Errorf("KMov = %#x", got)
	}
	if got := UnaryMask(tcg.KNot, 0xabc); got != 0xabc {
		t.Errorf("KNot = %#x", got)
	}
	if got := UnaryMask(tcg.KFNeg, 0); got != 0 {
		t.Errorf("clean KFNeg = %#x", got)
	}
	if got := UnaryMask(tcg.KFNeg, 1); got != 1|1<<63 {
		t.Errorf("KFNeg = %#x", got)
	}
	if got := UnaryMask(tcg.KCvtIF, 2); got != ^uint64(0) {
		t.Errorf("KCvtIF = %#x", got)
	}
}

func TestCompareMask(t *testing.T) {
	if got := CompareMask(0, 0); got != 0 {
		t.Errorf("clean compare = %#x", got)
	}
	if got := CompareMask(1<<7, 0); got == 0 {
		t.Error("tainted compare produced clean flags")
	}
}

// Property: no rule conjures taint from fully clean inputs, and every rule
// output is monotone in its inputs (adding input taint never removes output
// taint for the same kind).
func TestNoTaintFromCleanQuick(t *testing.T) {
	kinds := []tcg.Kind{
		tcg.KAdd, tcg.KSub, tcg.KMul, tcg.KDiv, tcg.KMod, tcg.KAnd, tcg.KOr,
		tcg.KXor, tcg.KShl, tcg.KShr, tcg.KFAdd, tcg.KFSub, tcg.KFMul, tcg.KFDiv,
	}
	for _, k := range kinds {
		if got := BinaryMask(k, 0, 0, 13); got != 0 {
			t.Errorf("%v produced taint from clean inputs: %#x", k, got)
		}
	}
	f := func(m1, m2 uint64, extra uint64, sh uint8, kidx uint8) bool {
		k := kinds[int(kidx)%len(kinds)]
		base := BinaryMask(k, m1, m2, uint64(sh))
		wider := BinaryMask(k, m1|extra, m2, uint64(sh))
		return base&^wider == 0 || (k == tcg.KShl || k == tcg.KShr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// byteShadow is the reference the page-at-a-time range operations are held
// to: the same operations spelled one SetMemMask8/MemMask8 per byte.
type byteShadow struct{ *Shadow }

func (b byteShadow) setRange(addr uint64, masks []uint8) {
	for i, m := range masks {
		b.SetMemMask8(addr+uint64(i), m)
	}
}

func sameShadow(t *testing.T, label string, got, want *Shadow) {
	t.Helper()
	if got.TaintedBytes() != want.TaintedBytes() || got.HighWater() != want.HighWater() || got.Live() != want.Live() {
		t.Fatalf("%s: tainted %d high %d live %v, want %d %d %v", label,
			got.TaintedBytes(), got.HighWater(), got.Live(),
			want.TaintedBytes(), want.HighWater(), want.Live())
	}
	if len(got.pages) != len(want.pages) {
		t.Fatalf("%s: %d shadow pages, want %d", label, len(got.pages), len(want.pages))
	}
	if regs := Compare(got, want, func(addr, n uint64) {
		t.Fatalf("%s: shadow bytes [%#x,+%d) differ", label, addr, n)
	}); regs != 0 {
		t.Fatalf("%s: shadow registers %#x differ", label, regs)
	}
	// Equal masks: each page's count of tainted bytes must agree too.
	for base, wp := range want.pages {
		if got.pages[base].count != wp.count {
			t.Fatalf("%s: shadow page %#x counts %d tainted bytes, want %d", label, base, got.pages[base].count, wp.count)
		}
	}
}

// TestRangeOpsMatchBytewise drives the page-at-a-time range operations and
// their per-byte spelling through the same random schedule over a few
// neighbouring pages — ranges that straddle pages, start mid-page, clear
// what they set — and demands identical shadows, counts and high-water marks
// after every step, and identical first-taint notifications.
func TestRangeOpsMatchBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	got, want := NewShadow(), byteShadow{NewShadow()}
	var gotBirths, wantBirths int
	got.OnFirstTaint(func() { gotBirths++ })
	want.OnFirstTaint(func() { wantBirths++ })
	const lo = 0x2000_0000 - PageSize/2 // ranges cross three page boundaries
	for step := 0; step < 4000; step++ {
		addr := lo + uint64(rng.Intn(3*PageSize))
		n := uint64(rng.Intn(2*PageSize + 1))
		if rng.Intn(4) == 0 {
			n = uint64(rng.Intn(17))
		}
		switch op := rng.Intn(5); op {
		case 0, 1: // sparse masks, as a tainted message carries
			masks := make([]uint8, n)
			for i := range masks {
				if rng.Intn(8) == 0 {
					masks[i] = uint8(rng.Intn(256))
				}
			}
			got.SetMemRangeMasks(addr, masks)
			want.setRange(addr, masks)
		case 2:
			got.ClearMemRange(addr, n)
			want.setRange(addr, make([]uint8, n))
		case 3:
			mask := rng.Uint64() & rng.Uint64()
			if rng.Intn(3) == 0 {
				mask = 0
			}
			got.SetMemMask64(addr, mask)
			var b [8]uint8
			binary.LittleEndian.PutUint64(b[:], mask)
			want.setRange(addr, b[:])
		case 4:
			masks := got.MemRangeMasks(addr, n)
			any := false
			for i, m := range masks {
				if w := want.MemMask8(addr + uint64(i)); m != w {
					t.Fatalf("step %d: MemRangeMasks[%d] = %#x, want %#x", step, i, m, w)
				}
				any = any || m != 0
			}
			if tainted := got.MemRangeTainted(addr, n); tainted != any {
				t.Fatalf("step %d: MemRangeTainted(%#x, %d) = %v, want %v", step, addr, n, tainted, any)
			}
		}
		sameShadow(t, fmt.Sprintf("step %d", step), got, want.Shadow)
		if gotBirths != wantBirths {
			t.Fatalf("step %d: %d first-taint notifications, want %d", step, gotBirths, wantBirths)
		}
	}
	if gotBirths == 0 {
		t.Error("the schedule never cleaned the shadow and tainted it again")
	}
}

// TestRangeOpsSkipAbsentPages: a fault-corrupted MPI count hands the hooks a
// buffer of tens of megabytes over a shadow holding a byte or two. Scanning
// it must cost a page lookup per 4 KiB, not a map lookup per byte.
func TestRangeOpsSkipAbsentPages(t *testing.T) {
	s := NewShadow()
	const base, n = 0x1000_0000, 64 << 20
	s.SetMemMask8(base+n-1, 0x10)
	start := time.Now()
	if !s.MemRangeTainted(base, n) || s.MemRangeTainted(base, n-1) {
		t.Error("MemRangeTainted missed or invented the last byte")
	}
	if masks := s.MemRangeMasks(base, n); masks[n-1] != 0x10 || masks[0] != 0 {
		t.Error("MemRangeMasks lost the last byte")
	}
	s.ClearMemRange(base, n)
	if s.Live() {
		t.Error("ClearMemRange left taint behind")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("64 MiB of range operations over one tainted byte took %v", d)
	}
}

// TestShadowPageReuse pins the page free list: a word that is tainted and
// cleaned over and over (a spill slot, an accumulator) costs one page, not
// one per round, through every entry point that can drop a page; a reused
// page reads all-zero, wherever it is installed next; and neither a Clone nor
// a Reset shadow inherits the list.
func TestShadowPageReuse(t *testing.T) {
	const addr, other = 0x2000_0128, 0x7ffe_0f00
	s := NewShadow()
	s.SetRegMask(tcg.GPR0, 1) // live, so that SetMemMask64 takes its word path
	rounds := []struct {
		name  string
		round func()
	}{
		{"SetMemMask64", func() { s.SetMemMask64(addr, 0xff00ff); s.SetMemMask64(addr, 0) }},
		{"SetMemMask8", func() { s.SetMemMask8(addr, 0x81); s.SetMemMask8(addr, 0) }},
		{"SetMemRangeMasks+ClearMemRange", func() {
			s.SetMemRangeMasks(addr, []uint8{1, 0, 3})
			s.ClearMemRange(addr-8, 64)
		}},
	}
	for _, r := range rounds {
		r.round() // the first round may allocate the page the others reuse
		if allocs := testing.AllocsPerRun(1000, r.round); allocs != 0 {
			t.Errorf("%s: tainting and cleaning one word allocates %.2f times a round, want 0", r.name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			rounds[i%len(rounds)].round()
		}
	}); allocs > 1 {
		t.Errorf("1,000 rounds allocated %.0f pages, want at most one", allocs)
	}

	// Dirty the page all over, drop it, and look at it at another address.
	masks := make([]uint8, PageSize)
	for i := range masks {
		masks[i] = uint8(i) | 1
	}
	s.SetMemRangeMasks(addr&^(PageSize-1), masks)
	s.ClearMemRange(addr&^(PageSize-1), PageSize)
	if s.TaintedBytes() != 0 || len(s.pages) != 0 || s.nfree == 0 {
		t.Fatalf("after the clear: %d tainted bytes, %d pages, %d free", s.TaintedBytes(), len(s.pages), s.nfree)
	}
	s.SetMemMask8(other+9, 0x40)
	if got := s.MemMask64(other + 8); got != 0x40<<8 {
		t.Errorf("MemMask64 through a reused page = %#x, want %#x", got, 0x40<<8)
	}
	base := uint64(other) &^ (PageSize - 1)
	for i, m := range s.MemRangeMasks(base, PageSize) {
		if m != 0 && base+uint64(i) != other+9 {
			t.Fatalf("reused page reads %#x at offset %d, want 0", m, i)
		}
	}
	if got := s.TaintedAddrs(0); len(got) != 1 || got[0] != other+9 {
		t.Errorf("TaintedAddrs = %#x, want the one byte tainted since the reuse", got)
	}

	// The list is bounded, and private.
	for p := uint64(0); p < 2*maxFreePages; p++ {
		s.SetMemMask8(0x3000_0000+p*PageSize, 1)
	}
	s.ClearMemRange(0x3000_0000, 2*maxFreePages*PageSize)
	if s.nfree != maxFreePages {
		t.Errorf("free list holds %d pages, want the cap of %d", s.nfree, maxFreePages)
	}
	if c := s.Clone(); c.nfree != 0 {
		t.Errorf("a clone starts with %d free pages, want 0", c.nfree)
	}
	s.Reset()
	if s.nfree != 0 || s.free != ([maxFreePages]*Page{}) {
		t.Errorf("Reset left %d pages on the free list", s.nfree)
	}
}

// TestShadowRecycleRemakesOutgrownTable: a page table that one long run grew
// is kept while runs of its size recycle the shadow, and while fewer than
// MapWearStreak short runs in a row do; the streak's last makes it anew,
// once: the short runs after it keep the table sized for them. Clearing a
// map costs what it ever grew to.
func TestShadowRecycleRemakesOutgrownTable(t *testing.T) {
	s := NewShadow()
	id := func() uintptr { return reflect.ValueOf(s.pages).Pointer() }
	run := func(n int) {
		for i := 0; i < n; i++ {
			s.pages[uint64(i)*PageSize] = &Page{}
		}
		s.Recycle()
	}
	kept := id()
	for _, n := range []int{60, 1, 1, 64, 1} {
		run(n)
	}
	if id() != kept {
		t.Fatal("a table long runs grew was made anew before a streak of short runs")
	}
	var at []int
	for i := 2; i <= 3*MapWearStreak; i++ {
		before := id()
		run(1)
		if id() != before {
			at = append(at, i)
		}
	}
	if len(at) != 1 || at[0] != MapWearStreak {
		t.Errorf("short runs in a row made the table anew at %v, want only at %d", at, MapWearStreak)
	}
}
