package vm

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"chaser/internal/asm"
	"chaser/internal/isa"
	"chaser/internal/tcg"
)

// These tests cover the smaller accessors, string forms and error paths the
// larger behavioural tests skip over.

func TestTerminationStrings(t *testing.T) {
	tests := []struct {
		term Termination
		want string
	}{
		{Termination{Reason: ReasonExited, Code: 3}, "exited(3)"},
		{Termination{Reason: ReasonSignal, Signal: SIGSEGV, PC: 0x10, Msg: "boom"}, "killed(SIGSEGV)"},
		{Termination{Reason: ReasonAssert, Code: 7, PC: 0x20}, "assert-failed(code=7)"},
		{Termination{Reason: ReasonMPIError, Msg: "x"}, "mpi-error"},
		{Termination{Reason: ReasonBudget}, "budget-exhausted"},
	}
	for _, tt := range tests {
		if got := tt.term.String(); !strings.Contains(got, tt.want) {
			t.Errorf("String() = %q, want contains %q", got, tt.want)
		}
	}
	if !(Termination{Reason: ReasonSignal}).Abnormal() {
		t.Error("signal not abnormal")
	}
	if (Termination{Reason: ReasonExited, Code: 1}).Abnormal() {
		t.Error("non-zero exit counted abnormal (it is a normal termination)")
	}
	if !(Termination{Reason: ReasonExited}).OK() {
		t.Error("clean exit not OK")
	}
	if (Termination{Reason: ReasonExited, Code: 1}).OK() {
		t.Error("exit(1) reported OK")
	}
}

func TestSignalAndReasonNames(t *testing.T) {
	if SIGSEGV.String() != "SIGSEGV" || SIGFPE.String() != "SIGFPE" ||
		SIGILL.String() != "SIGILL" || SigNone.String() != "none" {
		t.Error("signal names wrong")
	}
	if Signal(99).String() == "" {
		t.Error("unknown signal empty")
	}
	names := map[Reason]string{
		ReasonExited: "exited", ReasonSignal: "signal", ReasonAssert: "assert-failed",
		ReasonMPIError: "mpi-error", ReasonBudget: "budget-exhausted",
	}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("Reason(%d) = %q, want %q", r, r.String(), want)
		}
	}
	if Reason(99).String() == "" {
		t.Error("unknown reason empty")
	}
}

func TestMachineAccessors(t *testing.T) {
	p, err := asm.Assemble("t", `
main:
    movi r1, 5
    movi r2, 9
    cmp r1, r2
    hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	if m.PC() != isa.CodeBase {
		t.Errorf("initial pc = %#x", m.PC())
	}
	m.SetReg(tcg.GPR(isa.R7), 0xbeef)
	if m.Reg(tcg.GPR(isa.R7)) != 0xbeef {
		t.Error("Reg/SetReg round trip")
	}
	term := m.Run()
	if term.Reason != ReasonExited {
		t.Fatal(term)
	}
	if m.Flags() != -1 { // 5 < 9
		t.Errorf("flags = %d, want -1", m.Flags())
	}
}

func TestTerminateIdempotent(t *testing.T) {
	p, err := asm.Assemble("t", "main:\n hlt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	m.Terminate(Termination{Reason: ReasonMPIError, Msg: "first"})
	m.Terminate(Termination{Reason: ReasonExited})
	if got := m.Terminated(); got == nil || got.Msg != "first" {
		t.Errorf("Terminate not first-wins: %v", got)
	}
}

func TestMPIRuntimeErrorString(t *testing.T) {
	e := &MPIRuntimeError{Op: "MPI_Send", Msg: "invalid rank 9"}
	if !strings.Contains(e.Error(), "MPI_Send") || !strings.Contains(e.Error(), "invalid rank") {
		t.Errorf("error = %q", e.Error())
	}
}

func TestSegFaultErrorForms(t *testing.T) {
	r := &SegFaultError{Addr: 0x10, Write: false}
	w := &SegFaultError{Addr: 0x20, Write: true}
	if !strings.Contains(r.Error(), "read") || !strings.Contains(w.Error(), "write") {
		t.Errorf("segfault strings: %q / %q", r, w)
	}
}

// mpiStub returns a scripted error from the MPI env.
type mpiStub struct{ err error }

func (s mpiStub) Call(m *Machine, sys isa.Sys) error { return s.err }

func TestMPIEnvErrorMapping(t *testing.T) {
	src := "main:\n syscall mpi_barrier\n hlt\n"
	mk := func(err error) Termination {
		p, aerr := asm.Assemble("t", src)
		if aerr != nil {
			t.Fatal(aerr)
		}
		m := New(p, Config{MPI: mpiStub{err: err}})
		return m.Run()
	}
	// MPIRuntimeError -> ReasonMPIError.
	if term := mk(&MPIRuntimeError{Op: "x", Msg: "y"}); term.Reason != ReasonMPIError {
		t.Errorf("mpi error term = %v", term)
	}
	// SegFaultError -> SIGSEGV.
	if term := mk(&SegFaultError{Addr: 1}); term.Signal != SIGSEGV {
		t.Errorf("segfault term = %v", term)
	}
	// Arbitrary error -> ReasonMPIError.
	if term := mk(errFake{}); term.Reason != ReasonMPIError {
		t.Errorf("generic error term = %v", term)
	}
	// nil error -> success.
	if term := mk(nil); term.Reason != ReasonExited {
		t.Errorf("success term = %v", term)
	}
}

// waitingEnv suspends the machine in its first call twice and asks it to
// yield after the second call.
type waitingEnv struct{ calls []isa.Sys }

func (e *waitingEnv) Call(m *Machine, sys isa.Sys) error {
	e.calls = append(e.calls, sys)
	switch len(e.calls) {
	case 1, 2:
		return ErrWait
	case 4:
		m.Yield()
	}
	return nil
}

// TestRunSliceSuspendsInsideTheCall: a machine whose MPI environment returns
// ErrWait stops inside the syscall, and resuming it makes the same call again
// — hooks and counters see the syscall once — while a Yield stops it after a
// completed call. What it has executed when it ends is what a machine that
// never stepped aside has.
func TestRunSliceSuspendsInsideTheCall(t *testing.T) {
	p, err := asm.Assemble("t", "main:\n syscall mpi_barrier\n syscall mpi_rank\n movi r1, 7\n syscall out_int\n hlt\n")
	if err != nil {
		t.Fatal(err)
	}
	straight := New(p, Config{MPI: mpiStub{}})
	if term := straight.Run(); term.Reason != ReasonExited {
		t.Fatal(term)
	}

	env := &waitingEnv{}
	m := New(p, Config{MPI: env})
	var pre, post []isa.Sys
	m.Hooks.PreSyscall = func(_ *Machine, sys isa.Sys) { pre = append(pre, sys) }
	m.Hooks.PostSyscall = func(_ *Machine, sys isa.Sys) { post = append(post, sys) }
	slices := 0
	for m.RunSlice() == nil {
		slices++
		if slices > 10 {
			t.Fatal("the machine never ended")
		}
	}
	// Two waits in the barrier and one yield after mpi_rank.
	if slices != 3 {
		t.Errorf("machine stepped aside %d times, want 3", slices)
	}
	wantCalls := []isa.Sys{isa.SysMPIBarrier, isa.SysMPIBarrier, isa.SysMPIBarrier, isa.SysMPIRank}
	if !reflect.DeepEqual(env.calls, wantCalls) {
		t.Errorf("environment saw %v, want %v", env.calls, wantCalls)
	}
	wantHooks := []isa.Sys{isa.SysMPIBarrier, isa.SysMPIRank, isa.SysOutInt}
	if !reflect.DeepEqual(pre, wantHooks) || !reflect.DeepEqual(post, wantHooks) {
		t.Errorf("pre-syscall hooks %v, post-syscall hooks %v, want %v each", pre, post, wantHooks)
	}
	if got, want := m.Counters(), straight.Counters(); got.Instructions != want.Instructions || got.Syscalls != want.Syscalls {
		t.Errorf("%d instructions and %d syscalls, a machine that never waited %d and %d",
			got.Instructions, got.Syscalls, want.Instructions, want.Syscalls)
	}
	if !bytes.Equal(m.Output(), straight.Output()) {
		t.Errorf("output %v, want %v", m.Output(), straight.Output())
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake" }

func TestOutBytesTooLarge(t *testing.T) {
	_, term := run(t, `
main:
    movi r1, 0x10000000
    movi r2, 99999999
    syscall out_bytes
    hlt
`)
	if term.Signal != SIGSEGV {
		t.Errorf("term = %v, want SIGSEGV on oversized out_bytes", term)
	}
}

func TestPrintStrTooLong(t *testing.T) {
	_, term := run(t, `
main:
    movi r1, 0x10000000
    movi r2, 9999999
    syscall print_str
    hlt
`)
	if term.Signal != SIGSEGV {
		t.Errorf("term = %v", term)
	}
}

func TestStepOnFetchFault(t *testing.T) {
	p, err := asm.Assemble("t", "main:\n movi r1, 0x999990\n push r1\n ret\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, Config{})
	for i := 0; i < 10; i++ {
		if term := m.Step(); term != nil {
			if term.Signal != SIGSEGV {
				t.Errorf("term = %v", term)
			}
			return
		}
	}
	t.Fatal("never faulted")
}

func TestWrite64CrossPageFault(t *testing.T) {
	// A 64-bit write straddling the end of the last mapped page faults.
	m := NewMemory()
	m.Map("r", 0, PageSize)
	if err := m.Write64(PageSize-4, 1); err == nil {
		t.Error("cross-boundary write succeeded")
	}
	if _, err := m.Read64(PageSize - 4); err == nil {
		t.Error("cross-boundary read succeeded")
	}
}

// TestSegfaultTextFormattedWhenRead: a guest access outside every mapped
// region ends the machine without formatting its text — Msg stays empty —
// and Message and String read as they did when the kill formatted it: the
// text of the SegFaultError of that access.
func TestSegfaultTextFormattedWhenRead(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want SegFaultError
	}{
		{"main:\n movi r1, 16\n ld r2, [r1+0]\n hlt\n", SegFaultError{Addr: 16}},
		{"main:\n movi r1, 32\n st [r1+8], r2\n hlt\n", SegFaultError{Addr: 40, Write: true}},
		{"main:\n movi r1, 16\n ldb r2, [r1+0]\n hlt\n", SegFaultError{Addr: 16}},
	} {
		p, err := asm.Assemble("t", tc.src)
		if err != nil {
			t.Fatal(err)
		}
		term := New(p, Config{}).Run()
		want := tc.want.Error()
		if term.Reason != ReasonSignal || term.Signal != SIGSEGV || term.Msg != "" || term.Message() != want {
			t.Errorf("%q: %+v, message %q, want SIGSEGV %q", tc.src, term, term.Message(), want)
		}
		if s := term.String(); s != fmt.Sprintf("killed(SIGSEGV) at %#x: %s", term.PC, want) {
			t.Errorf("%q: %s", tc.src, s)
		}
		if ab := (&AbortedError{Term: term}); ab.Error() != want {
			t.Errorf("%q: an abort carrying it reads %q", tc.src, ab.Error())
		}
	}
}
