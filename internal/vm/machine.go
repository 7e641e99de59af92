// Package vm implements the Chaser virtual machine: a guest process executing
// translated TCG micro-ops over paged memory, with optional bitwise taint
// tracking, OS-style signals, a syscall layer, and instrumentation hooks.
//
// One Machine corresponds to one guest process (one MPI rank). It plays the
// role of a QEMU vCPU plus the thin slice of guest OS that Chaser interacts
// with: process identity for VMI, signals for crash outcomes, and the MPI
// syscall boundary that Chaser hooks for cross-rank taint coordination.
package vm

import (
	"errors"
	"fmt"
	"math"

	"chaser/internal/isa"
	"chaser/internal/obs"
	"chaser/internal/taint"
	"chaser/internal/tcg"
	"chaser/internal/trace"
)

// DefaultMaxInstructions bounds runaway guests (fault-induced infinite
// loops); the supervisor kill is reported as ReasonBudget.
const DefaultMaxInstructions = 200_000_000

// DefaultSampleInterval is how often (in retired guest instructions) the
// tainted-byte sampler fires, matching the paper's 100K-instruction sampling
// of the fault-propagation curves.
const DefaultSampleInterval = 100_000

// Helper is an instrumentation callback invoked by a KHelper micro-op. It
// runs in front of the guest instruction identified by op.GuestPC/GuestOp —
// this is the execution context of Chaser's fault_injector().
type Helper func(m *Machine, op *tcg.Op)

// MemTaintEvent describes one tainted-memory access, carrying exactly the
// fields Chaser logs: instruction pointer, virtual and physical address,
// the taint mask and the current value at that location, its width in bytes
// (1 or 8) and the name of the memory region of VAddr ("heap", "stack",
// "data"), for region-level propagation analysis. It is the propagation
// log's own record, so the log takes the one the machine filled in as is.
type MemTaintEvent = trace.Event

// Hooks collects the optional callbacks Chaser installs on a machine. They
// run on the goroutine that runs the machine. Nil members are skipped.
type Hooks struct {
	// TaintedMemRead fires when a load reads tainted bytes
	// (DECAF_READ_TAINTMEM_CB). The event is the machine's own record,
	// rewritten by the next tainted access: a callback that keeps it copies
	// it.
	TaintedMemRead func(ev *MemTaintEvent)
	// TaintedMemWrite fires when a store writes tainted bytes
	// (DECAF_WRITE_TAINTMEM_CB), on the same terms.
	TaintedMemWrite func(ev *MemTaintEvent)
	// PreSyscall fires before a syscall dispatches; Chaser uses it to hook
	// MPI sends (publish taint to the hub).
	PreSyscall func(m *Machine, sys isa.Sys)
	// PostSyscall fires after a syscall completes; Chaser uses it to hook
	// MPI receives (poll taint from the hub).
	PostSyscall func(m *Machine, sys isa.Sys)
	// Sample fires every SampleInterval retired instructions while taint
	// tracking is enabled.
	Sample func(instrs uint64, taintedBytes int64)
}

// Counters aggregates execution statistics for one run. A machine keeps one,
// a snapshot keeps one and a run's result keeps one per rank, so it holds the
// opcodes the ISA has and no more.
type Counters struct {
	Instructions uint64
	// PerOp is indexed by opcode. The interpreter credits it per block
	// (creditBlock, flushPerOp), not per instruction, so its bounds checks
	// are off the hot path.
	PerOp            [isa.NumOps]uint64
	TBsExecuted      uint64
	ChainedTBs       uint64 // blocks reached through chained edges
	FastPathTBs      uint64 // blocks executed on the interpreter's taint-free copy
	TaintedMemReads  uint64
	TaintedMemWrites uint64
	Syscalls         uint64
}

// MPIEnv is the interface between a machine and its MPI runtime. Call
// handles one MPI syscall. A call that cannot complete until another rank has
// run returns ErrWait: the machine suspends inside the syscall (RunSlice
// returns nil) and the next RunSlice issues the same Call again, so an
// environment keeps what a waiting call has done so far. A returned
// MPIRuntimeError terminates the guest with ReasonMPIError; any other error
// is treated as an OS-level fault.
type MPIEnv interface {
	Call(m *Machine, sys isa.Sys) error
}

// ErrWait is what MPIEnv.Call returns to suspend the machine inside the call.
var ErrWait = errors.New("vm: MPI call waits for another rank")

// MPIRuntimeError is an error the MPI runtime detected and reported (the
// "MPI error detected" termination class of Table III).
type MPIRuntimeError struct {
	Op  string
	Msg string
}

func (e *MPIRuntimeError) Error() string {
	return fmt.Sprintf("mpi: %s: %s", e.Op, e.Msg)
}

// AbortedError carries a world-abort termination out of an interrupted MPI
// operation. A rank woken from a blocked send/recv/collective by an abort
// adopts the abort's own termination verbatim — so a wall-clock watchdog
// kill surfaces as ReasonTimeout on every rank, not as a synthesized MPI
// error on the ones that happened to be blocked.
type AbortedError struct{ Term Termination }

func (e *AbortedError) Error() string { return e.Term.Message() }

// Config parameterizes machine construction.
type Config struct {
	// MaxInstructions caps execution; 0 selects DefaultMaxInstructions.
	MaxInstructions uint64
	// SampleInterval for the tainted-byte sampler; 0 selects
	// DefaultSampleInterval.
	SampleInterval uint64
	// Rank and WorldSize identify the process within an MPI world; both are
	// zero / one for standalone processes.
	Rank      int
	WorldSize int
	// MPI supplies the MPI runtime; nil machines fail MPI syscalls.
	MPI MPIEnv
	// BaseCache, when non-nil, is the shared translation cache the machine's
	// translator serves clean blocks from (and publishes them into). All
	// machines of a campaign share one cache so the guest program is
	// translated once, not once per rank per run. Nil gives the machine a
	// private cache.
	BaseCache *tcg.BaseCache
	// Obs, when non-nil, receives the machine's execution telemetry: hot-loop
	// counters are flushed into it once at run end (the interpreter itself is
	// never instrumented live), and the translator's latency histogram is
	// attached. Nil disables all telemetry at zero cost.
	Obs *obs.Registry
	// NoFastPath runs every block on the interpreter's taint copy even when
	// taint is off or the shadow is empty. The taint-free copy is
	// observationally identical, so this exists only for the ablation
	// benchmarks and differential tests that prove it.
	NoFastPath bool
	// Events, when non-nil, receives structured run-lifecycle events (rank
	// termination). The interpreter never emits — only run-edge code
	// does — so a nil sink costs nothing and an enabled one costs one Emit
	// per rank per run.
	Events *obs.Sink
}

// Machine is one guest process.
type Machine struct {
	// Name is the guest program's name: what a fault spec's Target names.
	Name string
	// Rank and WorldSize locate the process in its MPI world.
	Rank      int
	WorldSize int

	Prog   *isa.Program
	Mem    *Memory
	Trans  *tcg.Translator
	Shadow *taint.Shadow
	Hooks  Hooks

	// regs is sized to the full uint8 MReg index space (only the first
	// NumMRegs entries are live) so the interpreter's register accesses
	// compile without bounds checks. The interpreter is sensitive to where it
	// sits: at offset 120 each access encodes the offset in one byte, and a
	// hook added above it (offset 128) measured 4–8% slower taint-copy runs
	// on bfs, matvec and lud. Add fields below it.
	regs  [256]uint64
	pc    uint64
	flags int64 // last comparison result: -1, 0, +1

	// TaintEnabled toggles taint propagation (DECAF++-style elastic
	// tainting: off for plain fault-injection runs, on for tracing runs).
	TaintEnabled bool

	heapBrk  uint64
	maxInstr uint64
	sampleIv uint64
	// nextSample is the retired-instruction count of the next sample
	// boundary: the smallest multiple of sampleIv above counters.Instructions.
	// The interpreter compares against it (through stopAt) instead of
	// dividing per instruction; retire alone advances it.
	nextSample uint64
	noFastPath bool
	// taintEv is the record handed to the tainted-memory hooks.
	taintEv MemTaintEvent

	console []byte
	output  []byte

	helpers []Helper
	mpi     MPIEnv

	counters Counters
	// forkBase is the counters a machine resumed from a snapshot started
	// with (nil for a machine started at program entry): telemetry publishes
	// only what this machine executed itself.
	forkBase *Counters
	// term is the final status, nil while running: &ended, or an abort's.
	term      *Termination
	ended     Termination
	abort     abortBox
	execTrace *execRing
	chains    chainTable
	prevTB    *chainNode
	// dirtyPerOp heads the list of chain nodes holding unflushed per-opcode
	// execution credit (chainNode.execs != 0); flushPerOp folds them into
	// counters.PerOp before any reader sees the snapshot.
	dirtyPerOp *chainNode

	obsReg     *obs.Registry
	obsFlushed bool
	events     *obs.Sink

	// waitingIn is the MPI syscall the machine is suspended in (its Call
	// returned ErrWait; 0: none) and waitPC that instruction's address;
	// yielded is set by Yield. Either makes RunSlice return.
	waitingIn isa.Sys
	waitPC    uint64
	yielded   bool
}

// New creates a machine for prog with the standard memory layout mapped:
// data segment, heap, and stack. The code segment is fetched through the
// translator, not data memory.
func New(prog *isa.Program, cfg Config) *Machine {
	var fresh *Arena
	return fresh.New(prog, cfg)
}

// Reg returns the value of a micro-register.
func (m *Machine) Reg(r tcg.MReg) uint64 { return m.regs[r] }

// SetReg sets a micro-register. Chaser's CorruptRegister goes through this.
func (m *Machine) SetReg(r tcg.MReg, v uint64) { m.regs[r] = v }

// GPR returns a guest general-purpose register value.
func (m *Machine) GPR(r isa.Reg) uint64 { return m.regs[tcg.GPR(r)] }

// SetGPR sets a guest general-purpose register.
func (m *Machine) SetGPR(r isa.Reg, v uint64) { m.regs[tcg.GPR(r)] = v }

// FPR returns a guest floating-point register value.
func (m *Machine) FPR(r isa.Reg) float64 {
	return math.Float64frombits(m.regs[tcg.FPR(r)])
}

// SetFPR sets a guest floating-point register.
func (m *Machine) SetFPR(r isa.Reg, v float64) {
	m.regs[tcg.FPR(r)] = math.Float64bits(v)
}

// PC returns the current guest program counter.
func (m *Machine) PC() uint64 { return m.pc }

// Flags returns the comparison flags register (-1, 0 or +1).
func (m *Machine) Flags() int64 { return m.flags }

// Console returns everything the guest printed.
func (m *Machine) Console() string { return string(m.console) }

// Output returns the guest's output file, the artifact compared bit-wise
// against the golden run for SDC classification.
func (m *Machine) Output() []byte {
	out := make([]byte, len(m.output))
	copy(out, m.output)
	return out
}

// Buffers returns the guest's console and output file as the machine holds
// them, without copying: the bytes are the machine's, valid until it runs
// again or is released to an arena. Console and Output copy them.
func (m *Machine) Buffers() (console, output []byte) { return m.console, m.output }

// OutputLen returns the current length of the guest's output file without
// copying it. Syscall hooks use it to compute the file offset of the bytes
// an output syscall just appended.
func (m *Machine) OutputLen() int { return len(m.output) }

// Counters returns a snapshot of the execution statistics.
func (m *Machine) Counters() Counters {
	m.flushPerOp()
	return m.counters
}

// Instructions returns the retired-instruction count alone: what a hook that
// dates an event wants, without the flush and copy of Counters.
func (m *Machine) Instructions() uint64 { return m.counters.Instructions }

// Terminated returns the final status, or nil while running.
func (m *Machine) Terminated() *Termination { return m.term }

// RegisterHelper installs an instrumentation helper and returns its id for
// use in KHelper micro-ops emitted by translation hooks.
func (m *Machine) RegisterHelper(h Helper) int {
	m.helpers = append(m.helpers, h)
	return len(m.helpers) - 1
}

// Terminate force-stops the machine with the given status. Used by the MPI
// world supervisor to abort peers of a crashed rank.
func (m *Machine) Terminate(t Termination) {
	if m.term == nil {
		m.end(t)
	}
}

// end terminates the machine with t, kept in the machine's own storage.
func (m *Machine) end(t Termination) {
	m.ended = t
	m.term = &m.ended
}
