package vm

import (
	"fmt"
	"unsafe"

	"chaser/internal/isa"
	"chaser/internal/taint"
	"chaser/internal/tcg"
)

// Fork-point run multiplexing: a machine that is not executing — paused,
// exited, or live where its world's schedule left it — is captured into an
// immutable Snapshot, and any number of forked machines are constructed from
// it. Memory is shared copy-on-write (see Memory.Snapshot); everything else —
// registers, flags, counters, console/output, shadow taint, the MPI call it
// is suspended in — is copied, so a forked continuation is bitwise
// indistinguishable from a machine that executed the prefix itself.

// PauseAt suspends the machine at the given guest pc with ReasonPaused. It
// is called from an instrumentation helper running in front of the target
// instruction: the instruction is not yet retired, so resuming from pc
// re-executes it exactly once and no counter compensation is needed.
func (m *Machine) PauseAt(pc uint64) {
	m.pc = pc
	m.end(Termination{Reason: ReasonPaused, PC: pc, Msg: "fork-point pause"})
}

// Snapshot is an immutable capture of one machine, shareable across any
// number of forks. A checkpoint ladder keeps many, so it holds what the
// machine has and no more: the micro-registers that exist, per-op counts for
// the opcodes that exist, and no shadow at all while taint never touched the
// machine.
type Snapshot struct {
	mem      *MemImage
	regs     [tcg.NumMRegs]uint64
	pc       uint64
	flags    int64
	heapBrk  uint64
	console  []byte
	output   []byte
	counters Counters
	// shadow is nil for a machine whose shadow never held taint (Pristine):
	// a fork starts from an empty one.
	shadow  *taint.Shadow
	taintOn bool
	// term is non-nil when the rank had already exited cleanly before the
	// world paused; forks restore it pre-terminated.
	term *Termination
	// waitingIn and waitPC are the MPI call the machine was suspended in and
	// its instruction (0: none): a fork's first RunSlice goes on with it.
	waitingIn isa.Sys
	waitPC    uint64
}

// Snapshot captures the machine, which is not executing. Legal states: paused
// (ReasonPaused, the fork target), exited cleanly (ReasonExited), or live where
// its world's schedule left it — not started, stepped aside after an MPI call,
// or suspended inside one. An abnormally terminated machine errors: an
// abnormal prefix is not a fork point.
//
// The world a snapshot is taken from runs no further, so a live machine
// publishes its telemetry here, as it would have on terminating.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if t := m.term; t != nil && t.Reason != ReasonPaused && t.Reason != ReasonExited {
		return nil, fmt.Errorf("vm: snapshot of abnormally terminated machine (%s)", t)
	}
	s := &Snapshot{
		pc:        m.pc,
		flags:     m.flags,
		heapBrk:   m.heapBrk,
		console:   append([]byte(nil), m.console...),
		output:    append([]byte(nil), m.output...),
		counters:  m.Counters(), // flushes deferred per-op credit first
		taintOn:   m.TaintEnabled,
		waitingIn: m.waitingIn,
		waitPC:    m.waitPC,
	}
	copy(s.regs[:], m.regs[:])
	if !m.Shadow.Pristine() {
		s.shadow = m.Shadow.Clone()
	}
	if t := m.term; t == nil {
		m.flushObs()
	} else if t.Reason == ReasonExited {
		tt := *t
		s.term = &tt
	}
	// Seal pages last: nothing above mutates memory.
	s.mem = m.Mem.Snapshot()
	m.obsReg.Counter("vm_snapshots_total").Inc()
	return s, nil
}

// Counters returns the execution statistics at the snapshot point.
func (s *Snapshot) Counters() Counters { return s.counters }

// PC returns the guest pc at the snapshot point: for a paused machine, the
// instruction it paused in front of.
func (s *Snapshot) PC() uint64 { return s.pc }

// Instructions returns the retired-instruction count at the snapshot point.
func (s *Snapshot) Instructions() uint64 { return s.counters.Instructions }

// Terminated returns the clean termination of an already-exited rank, nil
// for a paused or live one.
func (s *Snapshot) Terminated() *Termination { return s.term }

// Bytes returns the heap the snapshot holds: its pages and page index, and
// what it keeps beside them (Snapshot's own fields, the console/output copies,
// a shadow that held taint).
func (s *Snapshot) Bytes() int64 { return s.mem.Bytes() + s.ownBytes() }

// FreshBytes returns the part of Bytes the snapshot does not share with the
// snapshot its machine was forked from: the pages written since and
// everything but the pages. A cache holding a chain of snapshots pays Bytes
// for the first and FreshBytes for each later one.
func (s *Snapshot) FreshBytes() int64 { return s.mem.FreshBytes() + s.ownBytes() }

func (s *Snapshot) ownBytes() int64 {
	n := int64(unsafe.Sizeof(*s)) + int64(cap(s.console)+cap(s.output))
	if s.shadow != nil {
		n += s.shadow.Bytes()
	}
	return n
}

// sealed returns b with no spare capacity: the machine only ever appends to
// its console and output, so its first append copies the bytes and the
// snapshot's are never written.
func sealed(b []byte) []byte { return b[:len(b):len(b)] }

// NewFromSnapshot constructs a forked machine resuming from snap. The
// config supplies the same knobs New does (budget, sampling, caches,
// telemetry, MPI plumbing); prog must be the program the snapshot was
// captured from.
func NewFromSnapshot(prog *isa.Program, snap *Snapshot, cfg Config) *Machine {
	var fresh *Arena
	return fresh.NewFromSnapshot(prog, snap, cfg)
}
