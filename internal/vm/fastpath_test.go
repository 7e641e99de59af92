package vm

import (
	"fmt"
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

// frameSrc counts down through a stack slot: its loop block uses SP as an
// address only. The tests below insert one instruction at the loop's head
// (%[1]s) and one in front of the exit (%[2]s).
const frameSrc = `
main:
    movi r1, 50
loop:
    %[1]s
    st [sp-8], r1
    ld r2, [sp-8]
    addi r1, r1, -1
    cmpi r1, 0
    jg loop
    %[2]s
    syscall exit
`

// TestFastPathSelection pins down exactly when the specialized loop runs:
// always while no taint exists; while it does, for every block whose
// registers are clean while memory is — a register tainted at entry and only
// ever used as an address keeps every block there — never for a block that
// reads or writes a tainted register as data nor while a memory byte is
// tainted; and never under the NoFastPath ablation switch.
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
		// The frame program runs 51 blocks: main's (through the first
		// iteration), the loop's 49 times and the exit block.
		const blocks = 51
		for _, tc := range []struct {
			name       string
			head, exit string
			reg        isa.Reg // tainted at entry
			memory     bool    // a stack byte below the slot is tainted at entry
			fast       uint64
		}{
			{name: "address only", head: "nop", exit: "nop", reg: isa.SP, fast: blocks},
			{name: "read as data", head: "mov r3, sp", exit: "nop", reg: isa.SP, fast: 1},
			{name: "written as data", head: "nop", exit: "movi r5, 7", reg: isa.R5, fast: blocks - 1},
			{name: "tainted memory", head: "nop", exit: "nop", reg: isa.SP, memory: true, fast: 0},
		} {
			t.Run(tc.name, func(t *testing.T) {
				p, err := asm.Assemble("test", fmt.Sprintf(frameSrc, tc.head, tc.exit))
				if err != nil {
					t.Fatal(err)
				}
				m := New(p, Config{})
				m.TaintEnabled = true
				m.Shadow.SetRegMask(tcg.GPR(tc.reg), 1)
				if tc.memory {
					m.Shadow.SetMemMask8(m.GPR(isa.SP)-64, 1)
				}
				if term := m.Run(); term.Reason != ReasonExited {
					t.Fatalf("term = %v", term)
				}
				c := m.Counters()
				if c.TBsExecuted != blocks || c.FastPathTBs != tc.fast {
					t.Errorf("FastPathTBs = %d of %d, want %d of %d", c.FastPathTBs, c.TBsExecuted, tc.fast, blocks)
				}
				if c.TaintedMemWrites != 0 || c.TaintedMemReads != 0 {
					t.Errorf("%d tainted reads and %d writes: the stored counter is clean", c.TaintedMemReads, c.TaintedMemWrites)
				}
				if mask := m.Shadow.RegMask(tcg.T0); mask != 0 {
					t.Errorf("T0 carries taint %#x: an address's taint reached it", mask)
				}
			})
		}
		t.Run("seeded between chained blocks", func(t *testing.T) {
			// The loop block and the data block chain to each other. A helper
			// in the loop block taints R5, which only the data block reads, in
			// the tenth iteration: the loop block goes on on the taint-free copy,
			// and each chained edge into the data block, or back, changes copy
			// through step(). 101 blocks: main's, the loop's 49 times, the data
			// block's 50 times — 9 of them before the seed — and the exit block.
			p, err := asm.Assemble("test", `
main:
    movi r1, 50
    movi r6, 0
loop:
    addi r1, r1, -1
    jmp data
data:
    add r6, r6, r5
    cmpi r1, 0
    jg loop
    syscall exit
`)
			if err != nil {
				t.Fatal(err)
			}
			m := New(p, Config{})
			m.TaintEnabled = true
			fires := 0
			id := m.RegisterHelper(func(mm *Machine, _ *tcg.Op) {
				if fires++; fires == 10 {
					mm.Shadow.SetRegMask(tcg.GPR(isa.R5), 1)
				}
			})
			m.Trans.AddHook(func(ins isa.Instr, _ uint64) []tcg.Op {
				if ins.Op == isa.OpAddI {
					return []tcg.Op{{Kind: tcg.KHelper, Helper: id}}
				}
				return nil
			})
			if term := m.Run(); term.Reason != ReasonExited {
				t.Fatalf("term = %v", term)
			}
			if c := m.Counters(); c.TBsExecuted != 101 || c.FastPathTBs != 60 || c.ChainedTBs == 0 {
				t.Errorf("FastPathTBs = %d of %d (%d chained), want 60 of 101", c.FastPathTBs, c.TBsExecuted, c.ChainedTBs)
			}
			if m.Shadow.RegMask(tcg.GPR(isa.R6)) == 0 {
				t.Error("R6 is clean: a chained edge ran the data block on the taint-free copy")
			}
		})
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
