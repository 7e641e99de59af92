package vm

import (
	"strings"
	"testing"

	"chaser/internal/asm"
	"chaser/internal/isa"
	"chaser/internal/tcg"
)

func run(t *testing.T, src string) (*Machine, Termination) {
	t.Helper()
	return runCfg(t, src, Config{})
}

func runCfg(t *testing.T, src string, cfg Config) (*Machine, Termination) {
	t.Helper()
	p, err := asm.Assemble("test", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(p, cfg)
	term := m.Run()
	return m, term
}

func TestRunArithmetic(t *testing.T) {
	m, term := run(t, `
main:
    movi r1, 6
    movi r2, 7
    mul r3, r1, r2
    mov r0, r3
    hlt
`)
	if !term.OK() && term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if got := m.GPR(isa.R3); got != 42 {
		t.Errorf("r3 = %d, want 42", got)
	}
	if term.Code != 42 {
		t.Errorf("exit code = %d, want 42 (hlt reports r0)", term.Code)
	}
}

func TestRunLoop(t *testing.T) {
	// Sum 1..10 = 55.
	m, term := run(t, `
main:
    movi r1, 0      ; sum
    movi r2, 10     ; i
loop:
    add r1, r1, r2
    addi r2, r2, -1
    cmpi r2, 0
    jg loop
    syscall exit
`)
	if term.Reason != ReasonExited || term.Code != 55 {
		t.Fatalf("term = %v", term)
	}
	if got := m.GPR(isa.R1); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	if c := m.Counters(); c.Instructions == 0 || c.PerOp[isa.OpAdd] != 10 {
		t.Errorf("counters = instrs %d, adds %d", c.Instructions, c.PerOp[isa.OpAdd])
	}
}

func TestRunCallRet(t *testing.T) {
	m, term := run(t, `
.entry main
double:
    add r0, r1, r1
    ret
main:
    movi r1, 21
    call double
    hlt
`)
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if got := m.GPR(isa.R0); got != 42 {
		t.Errorf("r0 = %d, want 42", got)
	}
}

func TestRunPushPop(t *testing.T) {
	m, term := run(t, `
main:
    movi r1, 11
    movi r2, 22
    push r1
    push r2
    pop r3
    pop r4
    hlt
`)
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if m.GPR(isa.R3) != 22 || m.GPR(isa.R4) != 11 {
		t.Errorf("r3=%d r4=%d", m.GPR(isa.R3), m.GPR(isa.R4))
	}
}

func TestRunFloat(t *testing.T) {
	m, term := run(t, `
main:
    fmovi f1, 1.5
    fmovi f2, 2.25
    fadd f3, f1, f2
    fmul f4, f3, f3
    fneg f5, f4
    movi r1, 10
    cvtif f6, r1
    cvtfi r2, f2
    hlt
`)
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if got := m.FPR(isa.F3); got != 3.75 {
		t.Errorf("f3 = %v", got)
	}
	if got := m.FPR(isa.F4); got != 14.0625 {
		t.Errorf("f4 = %v", got)
	}
	if got := m.FPR(isa.F5); got != -14.0625 {
		t.Errorf("f5 = %v", got)
	}
	if got := m.FPR(isa.F6); got != 10 {
		t.Errorf("f6 = %v", got)
	}
	if got := m.GPR(isa.R2); got != 2 {
		t.Errorf("r2 = %v", got)
	}
}

func TestRunDataSegment(t *testing.T) {
	m, term := run(t, `
.data
vec: .quad 100, 200, 300
.text
main:
    movi r1, vec
    ld r2, [r1+8]
    movi r3, 999
    st [r1+16], r3
    ld r4, [r1+16]
    hlt
`)
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if m.GPR(isa.R2) != 200 || m.GPR(isa.R4) != 999 {
		t.Errorf("r2=%d r4=%d", m.GPR(isa.R2), m.GPR(isa.R4))
	}
}

func TestRunConditionals(t *testing.T) {
	tests := []struct {
		cond string
		a, b int64
		take bool
	}{
		{"je", 5, 5, true}, {"je", 5, 6, false},
		{"jne", 5, 6, true}, {"jne", 5, 5, false},
		{"jl", 4, 5, true}, {"jl", 5, 5, false},
		{"jle", 5, 5, true}, {"jle", 6, 5, false},
		{"jg", 6, 5, true}, {"jg", 5, 5, false},
		{"jge", 5, 5, true}, {"jge", 4, 5, false},
		{"jl", -3, 2, true}, {"jg", -3, 2, false},
	}
	for _, tt := range tests {
		src := `
main:
    movi r1, ` + itoa(tt.a) + `
    movi r2, ` + itoa(tt.b) + `
    cmp r1, r2
    ` + tt.cond + ` taken
    movi r0, 0
    hlt
taken:
    movi r0, 1
    hlt
`
		m, term := run(t, src)
		if term.Reason != ReasonExited {
			t.Fatalf("%s(%d,%d): %v", tt.cond, tt.a, tt.b, term)
		}
		want := uint64(0)
		if tt.take {
			want = 1
		}
		if got := m.GPR(isa.R0); got != want {
			t.Errorf("%s(%d,%d) = %d, want %d", tt.cond, tt.a, tt.b, got, want)
		}
	}
}

func itoa(v int64) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

func TestSIGFPE(t *testing.T) {
	_, term := run(t, `
main:
    movi r1, 10
    movi r2, 0
    div r3, r1, r2
    hlt
`)
	if term.Reason != ReasonSignal || term.Signal != SIGFPE {
		t.Fatalf("term = %v, want SIGFPE", term)
	}
	_, term = run(t, `
main:
    movi r1, 10
    movi r2, 0
    mod r3, r1, r2
    hlt
`)
	if term.Signal != SIGFPE {
		t.Fatalf("mod term = %v, want SIGFPE", term)
	}
}

func TestSIGSEGVOnWildAccess(t *testing.T) {
	_, term := run(t, `
main:
    movi r1, 0x50000
    ld r2, [r1]
    hlt
`)
	if term.Reason != ReasonSignal || term.Signal != SIGSEGV {
		t.Fatalf("term = %v, want SIGSEGV", term)
	}
	if term.PC != isa.CodeBase+isa.InstrSize {
		t.Errorf("fault pc = %#x", term.PC)
	}
}

func TestSIGSEGVOnWildJump(t *testing.T) {
	// Return to a corrupted address: push garbage, ret.
	_, term := run(t, `
main:
    movi r1, 0x123450
    push r1
    ret
`)
	if term.Reason != ReasonSignal || term.Signal != SIGSEGV {
		t.Fatalf("term = %v, want SIGSEGV", term)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	_, term := runCfg(t, `
main:
    jmp main
`, Config{MaxInstructions: 1000})
	if term.Reason != ReasonBudget {
		t.Fatalf("term = %v, want budget", term)
	}
}

func TestSyscallPrintAndOutput(t *testing.T) {
	m, term := run(t, `
.data
msg: .ascii "hi\n"
.text
main:
    movi r1, 7
    syscall print_int
    fmovi f1, 2.5
    syscall print_float
    movi r1, msg
    movi r2, 3
    syscall print_str
    movi r1, 1234
    syscall out_int
    fmovi f1, 0.5
    syscall out_float
    movi r1, msg
    movi r2, 3
    syscall out_bytes
    movi r1, 0
    syscall exit
`)
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if got := m.Console(); got != "7\n2.5\nhi\n" {
		t.Errorf("console = %q", got)
	}
	out := m.Output()
	if len(out) != 8+8+3 {
		t.Fatalf("output len = %d", len(out))
	}
	if out[0] != 0xd2 || out[1] != 0x04 { // 1234 little-endian
		t.Errorf("out_int bytes = % x", out[:8])
	}
	if string(out[16:]) != "hi\n" {
		t.Errorf("out_bytes = %q", out[16:])
	}
}

func TestSyscallAlloc(t *testing.T) {
	m, term := run(t, `
main:
    movi r1, 64
    syscall alloc
    mov r5, r0
    movi r2, 77
    st [r5+8], r2
    ld r3, [r5+8]
    movi r1, 128
    syscall alloc
    mov r6, r0
    hlt
`)
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if m.GPR(isa.R5) != isa.HeapBase {
		t.Errorf("first alloc = %#x", m.GPR(isa.R5))
	}
	if m.GPR(isa.R3) != 77 {
		t.Errorf("heap store/load = %d", m.GPR(isa.R3))
	}
	if m.GPR(isa.R6) != isa.HeapBase+64 {
		t.Errorf("second alloc = %#x", m.GPR(isa.R6))
	}
}

func TestSyscallAllocCorrupted(t *testing.T) {
	_, term := run(t, `
main:
    movi r1, -5
    syscall alloc
    hlt
`)
	if term.Reason != ReasonSignal || term.Signal != SIGSEGV {
		t.Fatalf("term = %v, want SIGSEGV on negative alloc", term)
	}
}

func TestSyscallAssert(t *testing.T) {
	_, term := run(t, `
main:
    movi r1, 1
    syscall assert
    movi r1, 0
    movi r2, 33
    syscall assert
    hlt
`)
	if term.Reason != ReasonAssert || term.Code != 33 {
		t.Fatalf("term = %v, want assert(33)", term)
	}
}

func TestSyscallInvalidNumber(t *testing.T) {
	_, term := run(t, `
main:
    syscall 999
    hlt
`)
	if term.Reason != ReasonSignal || term.Signal != SIGILL {
		t.Fatalf("term = %v, want SIGILL", term)
	}
}

func TestMPIWithoutEnv(t *testing.T) {
	_, term := run(t, `
main:
    syscall mpi_rank
    hlt
`)
	if term.Reason != ReasonMPIError {
		t.Fatalf("term = %v, want mpi-error", term)
	}
}

func TestPrintStrFault(t *testing.T) {
	_, term := run(t, `
main:
    movi r1, 0x50000
    movi r2, 4
    syscall print_str
    hlt
`)
	if term.Signal != SIGSEGV {
		t.Fatalf("term = %v, want SIGSEGV", term)
	}
}

func TestAbort(t *testing.T) {
	p, err := asm.Assemble("spin", "main:\n jmp main\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	m.Abort(Termination{Reason: ReasonMPIError, Msg: "peer died"})
	term := m.Run()
	if term.Reason != ReasonMPIError {
		t.Fatalf("term = %v", term)
	}
	// Double abort keeps the first.
	m.Abort(Termination{Reason: ReasonExited})
	if got := m.Aborted(); got.Reason != ReasonMPIError {
		t.Errorf("Aborted = %v", got)
	}
}

func TestHelperInstrumentation(t *testing.T) {
	// A helper acting as a fault injector: before the 2nd execution of
	// fadd, corrupt f1.
	p, err := asm.Assemble("t", `
main:
    fmovi f1, 1.0
    fmovi f2, 2.0
    fadd f3, f1, f2
    fadd f3, f3, f2
    hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	execs := 0
	id := m.RegisterHelper(func(mm *Machine, op *tcg.Op) {
		execs++
		if execs == 2 {
			mm.SetFPR(isa.F3, 100)
		}
	})
	m.Trans.AddHook(func(ins isa.Instr, pc uint64) []tcg.Op {
		if ins.Op == isa.OpFAdd {
			return []tcg.Op{{Kind: tcg.KHelper, Helper: id}}
		}
		return nil
	})
	term := m.Run()
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if execs != 2 {
		t.Errorf("helper executions = %d, want 2", execs)
	}
	// Second fadd computed 100+2 instead of 3+2.
	if got := m.FPR(isa.F3); got != 102 {
		t.Errorf("f3 = %v, want 102", got)
	}
}

func TestStepAndTerminated(t *testing.T) {
	p, err := asm.Assemble("t", "main:\n movi r1, 1\n movi r2, 2\n hlt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	if m.Terminated() != nil {
		t.Error("terminated before start")
	}
	if term := m.Step(); term == nil {
		// single TB contains everything through hlt
		t.Error("step did not reach hlt")
	}
	if m.Terminated() == nil {
		t.Error("Terminated nil after hlt")
	}
	if term := m.Step(); term == nil || term.Reason != ReasonExited {
		t.Errorf("step after exit = %v", term)
	}
}

func TestStepHonorsPendingAbort(t *testing.T) {
	p, err := asm.Assemble("t", "main:\n movi r1, 1\n hlt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	m.Abort(Termination{Reason: ReasonMPIError, Msg: "peer rank terminated"})
	term := m.Step()
	if term == nil || term.Reason != ReasonMPIError {
		t.Fatalf("step with pending abort = %v, want MPI-error termination", term)
	}
	if m.GPR(isa.R1) != 0 {
		t.Error("aborted step still executed a block")
	}
}

func TestStepPerformsChainingBookkeeping(t *testing.T) {
	// A loop revisits the same control-flow edge; stepping through it must
	// populate and then follow chains exactly like Run.
	src := `
main:
    movi r2, 0
loop:
    addi r2, r2, 1
    cmpi r2, 5
    jl loop
    hlt
`
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	for i := 0; i < 50; i++ {
		if term := m.Step(); term != nil {
			break
		}
	}
	if m.Terminated() == nil || m.Terminated().Reason != ReasonExited {
		t.Fatalf("terminated = %v", m.Terminated())
	}
	if m.Counters().ChainedTBs == 0 {
		t.Error("Step never followed a chained edge")
	}
}

func TestConsoleOverflowIsClamped(t *testing.T) {
	// Printing a lot must not grow the console without bound.
	src := `
main:
    movi r2, 100
loop:
    movi r1, 123456789
    syscall print_int
    addi r2, r2, -1
    cmpi r2, 0
    jg loop
    hlt
`
	m, term := run(t, src)
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if !strings.HasPrefix(m.Console(), "123456789\n") {
		t.Error("console missing output")
	}
}

func TestExecTrace(t *testing.T) {
	p, err := asm.Assemble("t", `
main:
    movi r1, 3
loop:
    addi r1, r1, -1
    cmpi r1, 0
    jg loop
    movi r2, 0x50000
    ld r3, [r2]
    hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	if got := m.ExecTrace(); got != nil {
		t.Error("trace non-nil before enabling")
	}
	m.EnableExecTrace(4)
	term := m.Run()
	if term.Signal != SIGSEGV {
		t.Fatalf("term = %v", term)
	}
	tr := m.ExecTrace()
	if len(tr) != 4 {
		t.Fatalf("trace len = %d, want 4 (ring)", len(tr))
	}
	// Newest entry is the faulting load.
	last := tr[len(tr)-1]
	if last.Op != isa.OpLd {
		t.Errorf("last op = %v, want ld", last.Op)
	}
	// Entries are in execution order.
	for i := 1; i < len(tr); i++ {
		if tr[i].InstrNum <= tr[i-1].InstrNum {
			t.Error("trace not in execution order")
		}
	}
	out := m.FormatExecTrace()
	if !strings.Contains(out, "ld r3, [r2+0]") {
		t.Errorf("formatted trace missing disassembly:\n%s", out)
	}
}

func TestExecTraceDefaultsAndPartialFill(t *testing.T) {
	p, err := asm.Assemble("t", "main:\n movi r1, 1\n hlt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	m.EnableExecTrace(0) // defaults to 64
	m.Run()
	tr := m.ExecTrace()
	if len(tr) != 2 { // movi + hlt
		t.Errorf("trace len = %d, want 2", len(tr))
	}
}

func TestBlockChaining(t *testing.T) {
	// A hot loop must run through chained edges rather than cache lookups.
	m, term := run(t, `
main:
    movi r2, 1000
loop:
    addi r2, r2, -1
    cmpi r2, 0
    jg loop
    hlt
`)
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	c := m.Counters()
	if c.ChainedTBs == 0 {
		t.Fatal("no chained blocks on a hot loop")
	}
	if c.ChainedTBs < c.TBsExecuted*9/10 {
		t.Errorf("chained %d of %d TBs; expected nearly all", c.ChainedTBs, c.TBsExecuted)
	}
	// Translation stats see only the misses.
	if s := m.Trans.Stats(); s.CacheHits > 10 {
		t.Errorf("cache hits = %d; chaining should bypass the cache", s.CacheHits)
	}
}

func TestChainingInvalidatedByFlush(t *testing.T) {
	// After a mid-run flush, chained edges to old-generation blocks must
	// not be followed; retranslation picks up newly added hooks.
	p, err := asm.Assemble("t", `
main:
    movi r2, 100
loop:
    addi r2, r2, -1
    cmpi r2, 0
    jg loop
    hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	hookCalls := 0
	id := m.RegisterHelper(func(mm *Machine, op *tcg.Op) { hookCalls++ })
	flipped := false
	flipID := m.RegisterHelper(func(mm *Machine, op *tcg.Op) {
		if !flipped && mm.GPR(isa.R2) == 50 {
			flipped = true
			// Arm a new hook mid-run, exactly like Chaser does, and flush.
			mm.Trans.AddHook(func(ins isa.Instr, pc uint64) []tcg.Op {
				if ins.Op == isa.OpCmpI {
					return []tcg.Op{{Kind: tcg.KHelper, Helper: id}}
				}
				return nil
			})
			mm.Trans.Flush()
		}
	})
	m.Trans.AddHook(func(ins isa.Instr, pc uint64) []tcg.Op {
		if ins.Op == isa.OpAddI {
			return []tcg.Op{{Kind: tcg.KHelper, Helper: flipID}}
		}
		return nil
	})
	term := m.Run()
	if term.Reason != ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if !flipped {
		t.Fatal("flip helper never fired")
	}
	// The newly armed hook must have run for the remaining ~50 iterations;
	// stale chains would have kept executing the old translation.
	if hookCalls < 45 {
		t.Errorf("late-armed hook ran %d times; stale chains suspected", hookCalls)
	}
}

// TestForksShareConsoleAndOutput: a fork starts on the snapshot's console
// and output bytes without copying them and copies at its first append, so
// forks that print diverge from each other and never write the snapshot.
func TestForksShareConsoleAndOutput(t *testing.T) {
	p, err := asm.Assemble("t", `
main:
    movi r1, 7
    syscall print_int
    syscall out_int
    nop
    addi r1, r1, 1
    syscall print_int
    syscall out_int
    movi r1, 0
    syscall exit
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	m.Trans.SetProbe(tcg.Probe{Ops: tcg.OpSetOf(isa.OpNop), Helper: m.RegisterHelper(func(mm *Machine, op *tcg.Op) {
		mm.PauseAt(op.GuestPC)
	})})
	if term := m.Run(); term.Reason != ReasonPaused {
		t.Fatalf("prefix: %v", term)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	console, output := string(snap.console), string(snap.output)
	if console == "" || len(output) != 8 {
		t.Fatalf("prefix printed %q and wrote %d bytes", console, len(output))
	}

	a, b := NewFromSnapshot(p, snap, Config{}), NewFromSnapshot(p, snap, Config{})
	if &a.output[0] != &snap.output[0] || &a.console[0] != &snap.console[0] {
		t.Error("a fork copied the snapshot's console or output before appending")
	}
	b.SetGPR(isa.R1, 40) // b diverges: prints and writes 41 where a has 8
	for name, f := range map[string]*Machine{"a": a, "b": b} {
		if term := f.Run(); term.Reason != ReasonExited {
			t.Fatalf("fork %s: %v", name, term)
		}
	}
	if string(snap.console) != console || string(snap.output) != output {
		t.Error("a fork wrote the snapshot's console or output")
	}
	if a.Console() == b.Console() || !strings.HasPrefix(a.Console(), console) || !strings.HasPrefix(b.Console(), console) {
		t.Errorf("fork consoles %q and %q from prefix %q", a.Console(), b.Console(), console)
	}
	ao, bo := a.Output(), b.Output()
	if len(ao) != 16 || len(bo) != 16 || ao[8] != 8 || bo[8] != 41 || string(ao[:8]) != output || string(bo[:8]) != output {
		t.Errorf("fork outputs %v and %v from prefix %v", ao, bo, []byte(output))
	}
}

// TestSnapshotKeepsWhatTheMachineHas: a snapshot keeps the micro-registers
// and per-op counts the machine has and no shadow while taint never touched
// the machine, and a fork restores all of it: the registers, every counter,
// and a shadow that is empty — or, once taint has come and gone, the one the
// machine had.
func TestSnapshotKeepsWhatTheMachineHas(t *testing.T) {
	p, err := asm.Assemble("t", `
main:
    movi r1, 7
    movi r2, 9
    nop
    add r1, r1, r2
    syscall out_int
    nop
    movi r1, 0
    syscall exit
`)
	if err != nil {
		t.Fatal(err)
	}
	prefix := func(pauses int, taint func(*Machine)) *Snapshot {
		t.Helper()
		m := New(p, Config{})
		m.TaintEnabled = true
		taint(m)
		n := 0
		m.Trans.SetProbe(tcg.Probe{Ops: tcg.OpSetOf(isa.OpNop), Helper: m.RegisterHelper(func(mm *Machine, op *tcg.Op) {
			if n++; n == pauses {
				mm.PauseAt(op.GuestPC)
			}
		})})
		if term := m.Run(); term.Reason != ReasonPaused {
			t.Fatalf("prefix: %v", term)
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if [tcg.NumMRegs]uint64(m.regs[:tcg.NumMRegs]) != snap.regs {
			t.Errorf("snapshot registers %v, machine %v", snap.regs, m.regs[:tcg.NumMRegs])
		}
		if snap.Counters() != m.Counters() {
			t.Errorf("snapshot counters differ from the machine's")
		}
		return snap
	}

	clean := prefix(1, func(*Machine) {})
	if clean.shadow != nil {
		t.Error("a snapshot of a machine taint never touched keeps a shadow")
	}
	a, b := NewFromSnapshot(p, clean, Config{}), NewFromSnapshot(p, clean, Config{})
	if a.Shadow == nil || !a.Shadow.Pristine() || a.Shadow == b.Shadow {
		t.Fatal("forks of a clean snapshot do not start from shadows of their own")
	}
	a.Shadow.SetMemMask8(isa.StackTop-8, 0xff)
	if b.Shadow.Live() {
		t.Error("one fork's taint reached another's shadow")
	}
	if a.GPR(isa.R1) != 7 || a.GPR(isa.R2) != 9 || a.Reg(tcg.SPReg) != isa.StackTop-64 {
		t.Errorf("fork registers r1=%d r2=%d sp=%#x", a.GPR(isa.R1), a.GPR(isa.R2), a.Reg(tcg.SPReg))
	}

	// Taint that came and went leaves a high-water mark the run reports.
	decayed := prefix(2, func(m *Machine) {
		m.Shadow.SetMemMask8(isa.StackTop-8, 0xff)
		m.Shadow.SetMemMask8(isa.StackTop-8, 0)
	})
	if decayed.shadow == nil {
		t.Fatal("a snapshot dropped a shadow that held taint")
	}
	if f := NewFromSnapshot(p, decayed, Config{}); f.Shadow.HighWater() != 1 || f.Shadow.Live() {
		t.Errorf("fork shadow: high water %d, live %v; want 1 and clean", f.Shadow.HighWater(), f.Shadow.Live())
	}
	if decayed.Bytes() <= clean.Bytes() {
		t.Errorf("a kept shadow costs nothing: %d bytes, %d without", decayed.Bytes(), clean.Bytes())
	}
}
