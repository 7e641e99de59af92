package vm

import (
	"testing"

	"chaser/internal/asm"
	"chaser/internal/isa"
	"chaser/internal/tcg"
)

// These tests exercise end-to-end taint propagation through the execution
// engine: register -> arithmetic -> memory -> register, the tainted
// read/write callbacks, overwrite-with-clean clearing, and sampling.

func taintedRun(t *testing.T, src string, seed func(m *Machine)) (*Machine, Termination, []MemTaintEvent, []MemTaintEvent) {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(p, Config{})
	m.TaintEnabled = true
	var reads, writes []MemTaintEvent
	m.Hooks.TaintedMemRead = func(ev *MemTaintEvent) { reads = append(reads, *ev) }
	m.Hooks.TaintedMemWrite = func(ev *MemTaintEvent) { writes = append(writes, *ev) }
	if seed != nil {
		seed(m)
	}
	term := m.Run()
	return m, term, reads, writes
}

// seedAfter runs a helper before the first execution of the given opcode to
// taint a register, emulating a just-injected fault.
func seedTaintHook(m *Machine, target isa.Op, reg tcg.MReg, mask uint64) {
	fired := false
	id := m.RegisterHelper(func(mm *Machine, op *tcg.Op) {
		if !fired {
			fired = true
			mm.Shadow.SetRegMask(reg, mask)
		}
	})
	m.Trans.AddHook(func(ins isa.Instr, pc uint64) []tcg.Op {
		if ins.Op == target {
			return []tcg.Op{{Kind: tcg.KHelper, Helper: id}}
		}
		return nil
	})
}

func TestTaintFlowsThroughArithmeticToMemory(t *testing.T) {
	src := `
main:
    movi r1, 5
    movi r2, 3
    add r3, r1, r2      ; r3 tainted via r1
    movi r4, 0x20000000
    movi r5, 64
    mov r1, r5
    syscall 8           ; alloc(64) -> r0
    st [r0+0], r3       ; tainted store
    ld r6, [r0+0]       ; tainted load
    hlt
`
	m, term, reads, writes := taintedRun(t, src, func(m *Machine) {
		seedTaintHook(m, isa.OpAdd, tcg.GPR(isa.R1), 1<<4)
	})
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if got := m.Shadow.RegMask(tcg.GPR(isa.R3)); got == 0 {
		t.Error("r3 not tainted after add with tainted source")
	}
	if got := m.Shadow.RegMask(tcg.GPR(isa.R6)); got == 0 {
		t.Error("r6 not tainted after load of tainted memory")
	}
	if len(writes) != 1 {
		t.Fatalf("tainted writes = %d, want 1", len(writes))
	}
	if len(reads) != 1 {
		t.Fatalf("tainted reads = %d, want 1", len(reads))
	}
	ev := writes[0]
	if ev.VAddr != isa.HeapBase {
		t.Errorf("write vaddr = %#x, want %#x", ev.VAddr, isa.HeapBase)
	}
	if ev.PAddr == 0 || ev.PAddr == ev.VAddr {
		t.Errorf("paddr = %#x (must be translated and distinct)", ev.PAddr)
	}
	if ev.Value != 8 {
		t.Errorf("write value = %d, want 8", ev.Value)
	}
	if ev.Mask == 0 || ev.Size != 8 {
		t.Errorf("event = %+v", ev)
	}
	c := m.Counters()
	if c.TaintedMemReads != 1 || c.TaintedMemWrites != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestMovIClearsTaint(t *testing.T) {
	src := `
main:
    movi r1, 5
    add r2, r1, r1
    movi r2, 9          ; constant overwrite clears taint
    hlt
`
	m, term, _, _ := taintedRun(t, src, func(m *Machine) {
		seedTaintHook(m, isa.OpAdd, tcg.GPR(isa.R1), 1)
	})
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if got := m.Shadow.RegMask(tcg.GPR(isa.R2)); got != 0 {
		t.Errorf("r2 mask = %#x, want 0 after movi", got)
	}
}

func TestCleanStoreClearsMemoryTaint(t *testing.T) {
	// Fig. 7's drop-to-zero effect: tainted bytes are overwritten by the
	// program with clean data.
	src := `
main:
    movi r1, 64
    syscall alloc
    movi r2, 7
    add r3, r2, r2
    st [r0+0], r3       ; taint 8 bytes
    movi r4, 0
    st [r0+0], r4       ; overwrite with clean data
    hlt
`
	m, term, _, writes := taintedRun(t, src, func(m *Machine) {
		seedTaintHook(m, isa.OpAdd, tcg.GPR(isa.R2), 0xff)
	})
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if got := m.Shadow.TaintedBytes(); got != 0 {
		t.Errorf("tainted bytes = %d, want 0 after clean overwrite", got)
	}
	if len(writes) != 1 {
		t.Errorf("tainted write events = %d, want 1 (clean store is silent)", len(writes))
	}
}

func TestFloatTaintPropagation(t *testing.T) {
	src := `
main:
    fmovi f1, 1.5
    fmovi f2, 2.0
    fadd f3, f1, f2
    fmul f4, f3, f2
    hlt
`
	m, term, _, _ := taintedRun(t, src, func(m *Machine) {
		seedTaintHook(m, isa.OpFAdd, tcg.FPR(isa.F1), 1<<52)
	})
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if got := m.Shadow.RegMask(tcg.FPR(isa.F3)); got != ^uint64(0) {
		t.Errorf("f3 mask = %#x, want full smear", got)
	}
	if got := m.Shadow.RegMask(tcg.FPR(isa.F4)); got != ^uint64(0) {
		t.Errorf("f4 mask = %#x, want full smear", got)
	}
}

func TestTaintDisabledIsFree(t *testing.T) {
	src := `
main:
    movi r1, 5
    add r2, r1, r1
    movi r3, 64
    mov r1, r3
    syscall alloc
    st [r0+0], r2
    hlt
`
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	// Taint disabled: even with a seeded mask nothing propagates.
	m.Shadow.SetRegMask(tcg.GPR(isa.R1), 0xff)
	term := m.Run()
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if got := m.Counters().TaintedMemWrites; got != 0 {
		t.Errorf("tainted writes with taint disabled = %d", got)
	}
	if got := m.Shadow.TaintedBytes(); got != 0 {
		t.Errorf("tainted bytes = %d", got)
	}
}

func TestSampleHook(t *testing.T) {
	// A long loop with a small sample interval fires the sampler.
	src := `
main:
    movi r2, 5000
loop:
    addi r2, r2, -1
    cmpi r2, 0
    jg loop
    hlt
`
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{SampleInterval: 1000})
	m.TaintEnabled = true
	var samples []uint64
	m.Hooks.Sample = func(instrs uint64, tainted int64) {
		samples = append(samples, instrs)
	}
	term := m.Run()
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if len(samples) < 10 {
		t.Errorf("samples = %d, want >= 10", len(samples))
	}
	for i, s := range samples {
		if s%1000 != 0 {
			t.Errorf("sample %d at %d not on interval", i, s)
		}
	}
}

func TestByteTaint(t *testing.T) {
	src := `
main:
    movi r1, 64
    syscall alloc
    movi r2, 0xab
    add r3, r2, r2
    stb [r0+3], r3
    ldb r4, [r0+3]
    hlt
`
	m, term, reads, writes := taintedRun(t, src, func(m *Machine) {
		seedTaintHook(m, isa.OpAdd, tcg.GPR(isa.R2), 0x1)
	})
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if got := m.Shadow.TaintedBytes(); got != 1 {
		t.Errorf("tainted bytes = %d, want 1", got)
	}
	if m.Shadow.RegMask(tcg.GPR(isa.R4)) == 0 {
		t.Error("byte load did not pick up taint")
	}
	if len(reads) != 1 || len(writes) != 1 {
		t.Errorf("events: %d reads, %d writes", len(reads), len(writes))
	}
	if reads[0].Size != 1 || writes[0].Size != 1 {
		t.Error("event sizes wrong")
	}
}

// TestLogLessTaintedAccessCounters: Counters.TaintedMemReads/Writes are
// the machine's own, the same with both tainted-access hooks installed and
// with neither — a run that keeps no access log reads its totals from them —
// on a machine started at program entry and on one resumed from a snapshot
// (whose counters carry on from the prefix's).
func TestLogLessTaintedAccessCounters(t *testing.T) {
	p, err := asm.Assemble("t", `
main:
    movi r3, 6
warm:
    ld r2, [r1+0]
    st [r1+8], r2
    addi r3, r3, -1
    cmpi r3, 0
    jg warm
    nop
    movi r3, 9
loop:
    ld r2, [r1+0]
    st [r1+16], r2
    ldb r4, [r1+1]
    addi r3, r3, -1
    cmpi r3, 0
    jg loop
    hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(isa.StackTop - 256)
	hooked := 0
	prepare := func(m *Machine, hooks bool) {
		m.TaintEnabled = true
		if hooks {
			m.Hooks.TaintedMemRead = func(*MemTaintEvent) { hooked++ }
			m.Hooks.TaintedMemWrite = func(*MemTaintEvent) { hooked++ }
		}
	}
	scratch := func(hooks bool) *Machine {
		m := New(p, Config{})
		prepare(m, hooks)
		m.SetGPR(isa.R1, addr)
		m.Shadow.SetMemMask64(addr, 0xff00)
		return m
	}
	// The prefix pauses at the nop with tainted accesses already counted.
	prefix := scratch(false)
	prefix.Trans.SetProbe(tcg.Probe{Ops: tcg.OpSetOf(isa.OpNop), Helper: prefix.RegisterHelper(func(mm *Machine, op *tcg.Op) {
		mm.PauseAt(op.GuestPC)
	})})
	if term := prefix.Run(); term.Reason != ReasonPaused {
		t.Fatalf("prefix: %v", term)
	}
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	forked := func(hooks bool) *Machine {
		m := NewFromSnapshot(p, snap, Config{})
		prepare(m, hooks)
		return m
	}
	for name, mk := range map[string]func(bool) *Machine{"from scratch": scratch, "from a snapshot": forked} {
		var got [2]Counters
		for i, hooks := range []bool{false, true} {
			hooked = 0
			m := mk(hooks)
			if term := m.Run(); term.Reason != ReasonExited {
				t.Fatalf("%s, hooks %v: %v", name, hooks, term)
			}
			got[i] = m.Counters()
			if hooks && hooked == 0 {
				t.Fatalf("%s: the hooks saw no tainted access", name)
			}
		}
		if got[0].TaintedMemReads != 6+2*9 || got[0].TaintedMemWrites != 6+9 {
			t.Errorf("%s, no hooks: %d tainted reads and %d writes, want %d and %d",
				name, got[0].TaintedMemReads, got[0].TaintedMemWrites, 6+2*9, 6+9)
		}
		if got[0] != got[1] {
			t.Errorf("%s: counters differ with the hooks installed:\n none %+v\n both %+v", name, got[0], got[1])
		}
	}
}
