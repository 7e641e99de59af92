package vm

import (
	"reflect"
	"testing"

	"chaser/internal/asm"
	"chaser/internal/isa"
	"chaser/internal/obs"
	"chaser/internal/tcg"
)

// chainStressSrc exercises a chain node with three distinct successors in
// the recurring pattern A,B,A,C: f returns alternately to the straight-line
// site and to one of two parity-selected sites. A two-slot cache with
// round-robin eviction thrashes on this pattern (~25% steady-state hit rate
// on the ret node); pseudo-LRU keeps the recurring edge A cached (~50%).
const chainStressSrc = `
.entry main
f:
    addi r2, r2, 1
    ret
main:
    movi r1, 100
    movi r4, 1
loop:
    call f
    and r3, r1, r4
    cmpi r3, 0
    je even
    call f
    jmp cont
even:
    call f
cont:
    addi r1, r1, -1
    cmpi r1, 0
    jg loop
    syscall exit
`

func TestChainCacheKeepsRecurringEdge(t *testing.T) {
	m, term := run(t, chainStressSrc)
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if got := m.GPR(isa.R2); got != 200 {
		t.Fatalf("f called %d times, want 200", got)
	}
	c := m.Counters()
	// The f-ret node sees successors A,B,A,C per two iterations (A is the
	// post-call straight-line block, B/C the parity sites). Pseudo-LRU keeps
	// A resident: 99 of its 100 accesses chain (540 total here), while the
	// old round-robin eviction cycled A out every period, hitting only ~50
	// times from this node (~490 total). The bar sits between the two so the
	// round-robin scheme fails it.
	t.Logf("ChainedTBs = %d of %d TBs", c.ChainedTBs, c.TBsExecuted)
	if c.ChainedTBs < 515 {
		t.Errorf("ChainedTBs = %d, want >= 515 (pseudo-LRU keeps the recurring edge)", c.ChainedTBs)
	}
	if c.ChainedTBs >= c.TBsExecuted {
		t.Errorf("ChainedTBs = %d >= TBsExecuted %d", c.ChainedTBs, c.TBsExecuted)
	}
}

// TestChainCacheDuplicateEdge: re-resolving a pc already cached in a slot
// must reuse that slot, never insert a second edge for the same pc.
func TestChainCacheDuplicateEdge(t *testing.T) {
	m, term := run(t, `
main:
    movi r1, 20
loop:
    addi r1, r1, -1
    cmpi r1, 0
    jg loop
    syscall exit
`)
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	// The loop TB's taken edge targets itself; after the first resolution
	// every iteration must chain.
	c := m.Counters()
	if c.ChainedTBs < c.TBsExecuted-4 {
		t.Errorf("ChainedTBs = %d of %d, self-loop should chain every iteration",
			c.ChainedTBs, c.TBsExecuted)
	}
	if m.prevTB != nil {
		for i := range m.prevTB.out {
			for j := i + 1; j < len(m.prevTB.out); j++ {
				ei, ej := m.prevTB.out[i], m.prevTB.out[j]
				if ei.to != nil && ej.to != nil && ei.pc == ej.pc {
					t.Errorf("duplicate chain edges for pc %#x", ei.pc)
				}
			}
		}
	}
}

const fastCountSrc = `
main:
    movi r1, 50
loop:
    addi r1, r1, -1
    cmpi r1, 0
    jg loop
    syscall exit
`

// TestFastPathSelection pins down exactly when the specialized loop runs:
// always while no taint exists, never once the shadow is live at TB entry,
// and never under the NoFastPath ablation switch.
func TestFastPathSelection(t *testing.T) {
	t.Run("taint off", func(t *testing.T) {
		m, term := run(t, fastCountSrc)
		if term.Reason != ReasonExited {
			t.Fatalf("term = %v", term)
		}
		c := m.Counters()
		if c.FastPathTBs == 0 || c.FastPathTBs != c.TBsExecuted {
			t.Errorf("FastPathTBs = %d of %d, want all", c.FastPathTBs, c.TBsExecuted)
		}
	})
	t.Run("taint on, empty shadow", func(t *testing.T) {
		p, err := asm.Assemble("test", fastCountSrc)
		if err != nil {
			t.Fatal(err)
		}
		m := New(p, Config{})
		m.TaintEnabled = true
		if term := m.Run(); term.Reason != ReasonExited {
			t.Fatalf("term = %v", term)
		}
		c := m.Counters()
		if c.FastPathTBs != c.TBsExecuted {
			t.Errorf("FastPathTBs = %d of %d, want all (elastic taint: empty shadow costs nothing)",
				c.FastPathTBs, c.TBsExecuted)
		}
	})
	t.Run("live shadow", func(t *testing.T) {
		p, err := asm.Assemble("test", fastCountSrc)
		if err != nil {
			t.Fatal(err)
		}
		m := New(p, Config{})
		m.TaintEnabled = true
		// Seed a register the program never overwrites so the shadow stays
		// live for the whole run.
		m.Shadow.SetRegMask(tcg.GPR(isa.R9), 1)
		if term := m.Run(); term.Reason != ReasonExited {
			t.Fatalf("term = %v", term)
		}
		if c := m.Counters(); c.FastPathTBs != 0 {
			t.Errorf("FastPathTBs = %d with live shadow, want 0", c.FastPathTBs)
		}
	})
	t.Run("NoFastPath", func(t *testing.T) {
		m, term := runCfg(t, fastCountSrc, Config{NoFastPath: true})
		if term.Reason != ReasonExited {
			t.Fatalf("term = %v", term)
		}
		if c := m.Counters(); c.FastPathTBs != 0 {
			t.Errorf("FastPathTBs = %d under NoFastPath, want 0", c.FastPathTBs)
		}
	})
}

// diffSrc exercises everything both loops implement: fused compare+branch,
// fused base+displacement loads/stores, shifts, and a helper site inside a
// multi-instruction block so taint appears mid-TB on the fast loop.
const diffSrc = `
main:
    movi r1, 64
    syscall alloc
    movi r2, 400
    movi r5, 0
    movi r9, 3
loop:
    add r5, r5, r2
    st [r0+8], r5
    ld r6, [r0+8]
    shl r7, r6, r9
    stb [r0+3], r7
    ldb r8, [r0+3]
    addi r2, r2, -1
    cmpi r2, 0
    jg loop
    hlt
`

type diffState struct {
	Regs [tcg.NumMRegs]uint64 // live register window only

	Flags    int64
	PC       uint64
	Term     Termination
	Counters Counters
	RegMasks [tcg.NumMRegs]uint64
	Tainted  int64
	High     int64
	Addrs    []uint64
	Masks    []uint8
	Heap     []byte
	Console  string
	Output   []byte
	Reads    []MemTaintEvent
	Writes   []MemTaintEvent
	Samples  []int64
}

// runDiff executes diffSrc with taint enabled and a translation hook that
// seeds taint on the 150th execution of the accumulate instruction — mid-run
// and mid-TB, the shape of Chaser's fault_injector firing.
func runDiff(t *testing.T, noFast bool) diffState {
	t.Helper()
	p, err := asm.Assemble("test", diffSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(p, Config{NoFastPath: noFast, SampleInterval: 256})
	m.TaintEnabled = true
	var st diffState
	m.Hooks.TaintedMemRead = func(ev *MemTaintEvent) { st.Reads = append(st.Reads, *ev) }
	m.Hooks.TaintedMemWrite = func(ev *MemTaintEvent) { st.Writes = append(st.Writes, *ev) }
	m.Hooks.Sample = func(instrs uint64, tainted int64) { st.Samples = append(st.Samples, tainted) }
	fires := 0
	id := m.RegisterHelper(func(mm *Machine, op *tcg.Op) {
		fires++
		if fires == 150 {
			mm.Shadow.SetRegMask(tcg.GPR(isa.R2), 1<<2)
		}
	})
	m.Trans.AddHook(func(ins isa.Instr, pc uint64) []tcg.Op {
		if ins.Op == isa.OpAdd {
			return []tcg.Op{{Kind: tcg.KHelper, Helper: id}}
		}
		return nil
	})
	st.Term = m.Run()
	copy(st.Regs[:], m.regs[:tcg.NumMRegs])
	st.Flags = m.flags
	st.PC = m.pc
	st.Counters = m.Counters()
	for r := tcg.MReg(0); r < tcg.NumMRegs; r++ {
		st.RegMasks[r] = m.Shadow.RegMask(r)
	}
	st.Tainted = m.Shadow.TaintedBytes()
	st.High = m.Shadow.HighWater()
	st.Addrs = m.Shadow.TaintedAddrs(0)
	for _, a := range st.Addrs {
		st.Masks = append(st.Masks, m.Shadow.MemMask8(a))
	}
	heap, err := m.Mem.ReadBytes(isa.HeapBase, 64)
	if err != nil {
		t.Fatalf("heap read: %v", err)
	}
	st.Heap = heap
	st.Console = m.Console()
	st.Output = m.Output()
	return st
}

// TestFastFullDifferentialMidTBInjection is the dual-loop identity proof at
// the unit level: a run that starts on the fast loop, gets taint seeded by a
// helper in the middle of a block, and hands off to the full loop must be
// bitwise indistinguishable — registers, flags, memory, shadow state, taint
// events, samples, and counters — from the same run forced through the full
// loop for its entire life.
func TestFastFullDifferentialMidTBInjection(t *testing.T) {
	fast := runDiff(t, false)
	full := runDiff(t, true)

	if fast.Counters.FastPathTBs == 0 {
		t.Fatal("fast run never took the fast path; differential is vacuous")
	}
	if fast.Counters.FastPathTBs >= fast.Counters.TBsExecuted {
		t.Fatal("fast run never handed off to the full loop; differential is vacuous")
	}
	if full.Counters.FastPathTBs != 0 {
		t.Fatalf("NoFastPath run took the fast path %d times", full.Counters.FastPathTBs)
	}
	// The selector counter is the single permitted divergence.
	fast.Counters.FastPathTBs = 0
	full.Counters.FastPathTBs = 0

	if !reflect.DeepEqual(fast, full) {
		t.Errorf("fast loop and full loop diverged:\nfast: %+v\nfull: %+v", fast, full)
	}
	if fast.Tainted == 0 {
		t.Error("injection left no tainted memory; differential under-exercised")
	}
	if len(fast.Reads) == 0 || len(fast.Writes) == 0 {
		t.Error("no tainted memory events; differential under-exercised")
	}
}

// TestEventSinkFastLoopNoAlloc extends the fast-loop allocation guard to the
// observability event sink: with a disabled (nil) sink — and even with an
// enabled one, since the vm emits only at run edges, never per block — the
// fast loop must not allocate. This pins the "disabled is free" contract of
// the streaming sink at the layer where it matters most.
func TestEventSinkFastLoopNoAlloc(t *testing.T) {
	src := `
main:
    movi r1, 7
    add r2, r1, r1
    sub r3, r2, r1
    jmp main
`
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"disabled sink", Config{}},
		{"enabled sink", Config{Events: obs.NewSink(64)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := asm.Assemble("test", src)
			if err != nil {
				t.Fatal(err)
			}
			m := New(p, tc.cfg)
			tb, err := m.Trans.Block(m.pc)
			if err != nil {
				t.Fatal(err)
			}
			node := &chainNode{tb: tb}
			m.execTB(node, false) // warm
			allocs := testing.AllocsPerRun(200, func() {
				m.execTB(node, false)
			})
			if allocs != 0 {
				t.Errorf("fast loop allocates %.1f per block with %s, want 0", allocs, tc.name)
			}
			if tc.cfg.Events != nil && tc.cfg.Events.Len() != 0 {
				t.Errorf("fast loop emitted %d events; only run edges may emit", tc.cfg.Events.Len())
			}
		})
	}
}

// TestFastPathNoAlloc guards the fast loop's zero-allocation property: once a
// block is translated and chained, executing it must not allocate.
func TestFastPathNoAlloc(t *testing.T) {
	p, err := asm.Assemble("test", `
main:
    movi r1, 7
    movi r6, 2
    add r2, r1, r1
    shl r3, r2, r6
    sub r4, r3, r1
    xor r5, r4, r2
    jmp main
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	tb, err := m.Trans.Block(m.pc)
	if err != nil {
		t.Fatal(err)
	}
	node := &chainNode{tb: tb}
	m.execTB(node, false) // warm
	allocs := testing.AllocsPerRun(200, func() {
		m.execTB(node, false)
	})
	if allocs != 0 {
		t.Errorf("fast path allocates %.1f per block, want 0", allocs)
	}
	if m.term != nil {
		t.Fatalf("unexpected termination: %v", m.term)
	}
	// The dispatcher itself counts fast-path blocks, so every direct execTB
	// call above must have registered.
	if c := m.counters; c.FastPathTBs < 200 {
		t.Errorf("FastPathTBs = %d, want every direct execTB counted", c.FastPathTBs)
	}
}

// TestTaintedAccessNoAlloc is the full loop's twin of TestFastPathNoAlloc: a
// block whose load and store are both tainted, with both hooks installed,
// must not allocate — the event handed to a hook is the machine's own record,
// not a fresh one per access.
func TestTaintedAccessNoAlloc(t *testing.T) {
	p, err := asm.Assemble("test", `
main:
    ld r2, [r1+0]
    st [r1+8], r2
    jmp main
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	m.TaintEnabled = true
	addr := uint64(isa.StackTop - 256)
	m.SetGPR(isa.R1, addr)
	m.Shadow.SetMemMask64(addr, 0xff)
	var reads, writes int
	var last MemTaintEvent
	m.Hooks.TaintedMemRead = func(ev *MemTaintEvent) { reads++; last = *ev }
	m.Hooks.TaintedMemWrite = func(ev *MemTaintEvent) { writes++; last = *ev }
	tb, err := m.Trans.Block(m.pc)
	if err != nil {
		t.Fatal(err)
	}
	node := &chainNode{tb: tb}
	m.execTB(node, false) // warm: maps the stack page and the shadow page
	allocs := testing.AllocsPerRun(200, func() {
		m.execTB(node, false)
	})
	if allocs != 0 {
		t.Errorf("a tainted load and store allocate %.1f per block, want 0", allocs)
	}
	if m.term != nil {
		t.Fatalf("unexpected termination: %v", m.term)
	}
	if reads < 200 || writes < 200 {
		t.Fatalf("hooks saw %d reads and %d writes, want one of each per block", reads, writes)
	}
	want := MemTaintEvent{Write: true, EIP: isa.CodeBase + isa.InstrSize, VAddr: addr + 8, PAddr: last.PAddr,
		Mask: 0xff, InstrNum: last.InstrNum, Size: 8, Region: "stack"}
	if last != want || last.PAddr%PageSize != (addr+8)%PageSize {
		t.Errorf("last event %+v, want %+v", last, want)
	}
}
