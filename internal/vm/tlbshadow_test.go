package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"chaser/internal/asm"
	"chaser/internal/isa"
	"chaser/internal/tcg"
)

// tlbProbeSrc loops over one block of every memory arm whose TLB hit path
// reads the shadow page the entry holds — 64-bit and byte loads and stores,
// and a call's push — then the callee's ret and the jump back. r5 is the word
// the probe reads, r4 and r7 are stored eight and sixteen bytes above it.
const tlbProbeSrc = `
main:
    movi r1, 16384
    syscall alloc
    mov r5, r0
probe:
    ld r3, [r5+0]
    ldb r6, [r5+3]
    st [r5+8], r4
    stb [r5+16], r7
    call f
    jmp probe
f:
    ret
`

// TestTLBNeverServesAStaleShadowPage drives the interpreter's TLB hit paths
// while the shadow's page table changes behind the entries they hit: words
// tainted and cleaned from outside (pages added, dropped, and handed out again
// off the free list, at the same base or another), words across a page
// boundary, Snapshot and a fork, a machine given a copy of its shadow, a
// shadow recycled or reset in place, a machine released to an Arena and
// rebuilt from it, and taint tracking switched off and on. After every probe
// each load's mask and each store's result must be what the shadow's own
// accessors say at the same address.
func TestTLBNeverServesAStaleShadowPage(t *testing.T) {
	prog, err := asm.Assemble("tlbshadow", tlbProbeSrc)
	if err != nil {
		t.Fatal(err)
	}
	probePC := uint64(0)
	for i, ins := range prog.Code {
		if ins.Op == isa.OpLd {
			probePC = isa.CodeBase + uint64(i)*isa.InstrSize
			break
		}
	}
	for _, noFast := range []bool{true, false} {
		for _, fused := range []bool{true, false} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("nofast=%v/fused=%v/seed=%d", noFast, fused, seed), func(t *testing.T) {
					runTLBShadowProbes(t, prog, probePC, Config{NoFastPath: noFast}, fused, seed)
				})
			}
		}
	}
}

func runTLBShadowProbes(t *testing.T, prog *isa.Program, probePC uint64, cfg Config, fused bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	arena := new(Arena)
	m := arena.New(prog, cfg)
	m.TaintEnabled = true
	m.Trans.SetFusion(fused)
	for m.PC() != probePC {
		if term := m.Step(); term != nil {
			t.Fatalf("prefix: %v", term)
		}
	}
	heap := m.GPR(isa.R0)
	// Words on three heap pages: at a page's start, inside it, and at its
	// end, where the stores above the word land on the next page.
	addr := func() uint64 {
		page := heap + uint64(rng.Intn(3))*PageSize
		switch rng.Intn(4) {
		case 0:
			return page
		case 1:
			return page + uint64(8*rng.Intn(4))
		case 2:
			return page + PageSize - 8 // the stores land on the next page
		default:
			return page + PageSize - 16 // the byte store lands on the next page
		}
	}
	mask := func() uint64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Uint64() | 1
	}
	r := func(reg isa.Reg) tcg.MReg { return tcg.GPR(reg) }

	for step := 0; step < 400; step++ {
		var what string
		switch k := rng.Intn(20); {
		case k < 5:
			what = "taint a word from outside"
			m.Shadow.SetMemMask64(addr(), mask())
		case k < 7:
			what = "taint a byte from outside"
			m.Shadow.SetMemMask8(addr()+uint64(rng.Intn(8)), uint8(mask()))
		case k < 10:
			what = "clean a word from outside"
			m.Shadow.SetMemMask64(addr(), 0)
		case k < 11:
			what = "clean a page from outside"
			m.Shadow.ClearMemRange(addr()&^(PageSize-1), PageSize)
		case k < 12:
			what = "taint the stack slot a call pushes to"
			m.Shadow.SetMemMask64(m.GPR(isa.SP)-8, mask())
		case k < 13:
			what = "give the machine a copy of its shadow"
			m.Shadow = m.Shadow.Clone()
		case k < 14:
			what = "Snapshot and fork"
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			f := arena.NewFromSnapshot(prog, snap, cfg)
			f.Trans.SetFusion(fused)
			if rng.Intn(2) == 0 {
				arena.Release(m) // the fork may get the parent's machine next time
			}
			m = f
		case k < 15:
			what = "Recycle the shadow in place"
			m.Shadow.Recycle()
		case k < 16:
			what = "Reset the shadow"
			m.Shadow.Reset()
		case k < 17:
			what = "a probe with tracking off, then taint from outside"
			m.TaintEnabled = false
			tlbProbe(t, m, probePC, heap, 0, 0)
			m.Shadow.SetMemMask64(addr(), mask())
			m.TaintEnabled = true
		default:
			what = "probe again"
		}
		a := addr()
		m4, m7 := mask(), mask()
		sp := m.GPR(isa.SP)
		tlbProbe(t, m, probePC, a, m4, m7)

		sh := m.Shadow
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d (%s), word %#x: %s", step, what, a, fmt.Sprintf(format, args...))
		}
		if got, want := sh.RegMask(r(isa.R3)), sh.MemMask64(a); got != want {
			fail("ld read mask %#x, the shadow holds %#x", got, want)
		}
		if got, want := sh.RegMask(r(isa.R6)), uint64(sh.MemMask8(a+3)); got != want {
			fail("ldb read mask %#x, the shadow holds %#x", got, want)
		}
		if got := sh.MemMask64(a + 8); got != m4 {
			fail("st left mask %#x, stored %#x", got, m4)
		}
		if got := sh.MemMask8(a + 16); got != uint8(m7) {
			fail("stb left mask %#x, stored %#x", got, uint8(m7))
		}
		if got := sh.MemMask64(sp - 8); got != 0 {
			fail("the call's push left mask %#x on its slot", got)
		}
		if got := len(sh.TaintedAddrs(0)); int64(got) != sh.TaintedBytes() {
			fail("%d tainted bytes in the pages, the count says %d", got, sh.TaintedBytes())
		}
	}
}

// tlbProbe runs one pass of tlbProbeSrc's loop on m, which stands at probePC,
// reading the word at a and storing masks m4 and m7 above it. Every page the
// pass touches is in the TLB first, so each access takes the hit path.
func tlbProbe(t *testing.T, m *Machine, probePC, a, m4, m7 uint64) {
	t.Helper()
	m.SetGPR(isa.R5, a)
	if m.TaintEnabled {
		m.Shadow.SetRegMask(tcg.GPR(isa.R4), m4)
		m.Shadow.SetRegMask(tcg.GPR(isa.R7), m7)
	}
	for _, w := range []uint64{a, a + 8, a + 16, m.GPR(isa.SP) - 8} {
		v, err := m.Mem.Read64(w)
		if err == nil {
			err = m.Mem.Write64(w, v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for {
		if term := m.Step(); term != nil {
			t.Fatalf("probe: %v", term)
		}
		if m.PC() == probePC {
			return
		}
	}
}
