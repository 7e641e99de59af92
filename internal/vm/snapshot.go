package vm

import (
	"fmt"

	"chaser/internal/isa"
	"chaser/internal/taint"
	"chaser/internal/tcg"
)

// Fork-point run multiplexing: a paused (or exited) machine is captured into
// an immutable Snapshot, and any number of forked machines are constructed
// from it. Memory is shared copy-on-write (see Memory.Snapshot); everything
// else — registers, flags, counters, console/output, shadow taint — is
// copied, so a forked continuation is bitwise indistinguishable from a
// machine that executed the prefix itself.

// PauseAt suspends the machine at the given guest pc with ReasonPaused. It
// is called from an instrumentation helper running in front of the target
// instruction: the instruction is not yet retired, so resuming from pc
// re-executes it exactly once and no counter compensation is needed.
func (m *Machine) PauseAt(pc uint64) {
	m.pc = pc
	m.term = &Termination{Reason: ReasonPaused, PC: pc, Msg: "fork-point pause"}
}

// Snapshot is an immutable capture of one machine, shareable across any
// number of forks.
type Snapshot struct {
	mem      *MemImage
	regs     [256]uint64
	pc       uint64
	flags    int64
	heapBrk  uint64
	console  []byte
	output   []byte
	counters Counters
	shadow   *taint.Shadow
	taintOn  bool
	// term is non-nil when the rank had already exited cleanly before the
	// world paused; forks restore it pre-terminated.
	term *Termination
	// pausedSys is the blocking syscall a pause interrupted (0 = none); the
	// snapshot pc then points at the syscall instruction, which re-executes
	// on resume.
	pausedSys isa.Sys
}

// Snapshot captures the machine. Legal states: still running at a block
// boundary is NOT one — the machine must be paused (ReasonPaused) or have
// terminated cleanly (ReasonExited); anything else errors, because an
// abnormal prefix is not a fork point.
//
// A pause that interrupted a blocking MPI syscall rewinds the pc to the
// syscall instruction and uncounts its retirement (Instructions, PerOp,
// Syscalls): the fork re-executes the syscall against the snapshotted
// message queues and re-retires it, reproducing a from-scratch run's
// counters bitwise.
func (m *Machine) Snapshot() (*Snapshot, error) {
	t := m.term
	if t == nil {
		return nil, fmt.Errorf("vm: snapshot of a running machine")
	}
	if t.Reason != ReasonPaused && t.Reason != ReasonExited {
		return nil, fmt.Errorf("vm: snapshot of abnormally terminated machine (%s)", t)
	}
	s := &Snapshot{
		regs:     m.regs,
		pc:       m.pc,
		flags:    m.flags,
		heapBrk:  m.heapBrk,
		console:  append([]byte(nil), m.console...),
		output:   append([]byte(nil), m.output...),
		counters: m.Counters(), // flushes deferred per-op credit first
		shadow:   m.Shadow.Clone(),
		taintOn:  m.TaintEnabled,
	}
	switch {
	case t.Reason == ReasonExited:
		tt := *t
		s.term = &tt
	case m.pausedIn != 0:
		s.pc = t.PC // the blocked syscall instruction
		s.pausedSys = m.pausedIn
		s.counters.Syscalls--
		s.counters.Instructions--
		if ins, ok := m.Prog.InstrAt(t.PC); ok {
			s.counters.PerOp[ins.Op]--
		}
	default:
		// Block-boundary pause: m.pc is the next block start, already the
		// correct resume point.
		s.pc = m.pc
	}
	// Seal pages last: nothing above mutates memory.
	s.mem = m.Mem.Snapshot()
	m.obsReg.Counter("vm_snapshots_total").Inc()
	return s, nil
}

// PausedIn returns the blocking syscall the pause interrupted, or 0.
func (s *Snapshot) PausedIn() isa.Sys { return s.pausedSys }

// ResumesIn returns the blocking syscall the machine's snapshot was paused in
// (Snapshot.PausedIn) — the first instruction it executes issues that syscall
// again — or 0 for a machine that starts anywhere else.
func (m *Machine) ResumesIn() isa.Sys { return m.resumesIn }

// GPR returns a guest general-purpose register value from the snapshot.
func (s *Snapshot) GPR(r isa.Reg) uint64 { return s.regs[tcg.GPR(r)] }

// Counters returns the (compensated) execution statistics at the snapshot
// point.
func (s *Snapshot) Counters() Counters { return s.counters }

// Instructions returns the (compensated) retired-instruction count at the
// snapshot point.
func (s *Snapshot) Instructions() uint64 { return s.counters.Instructions }

// Terminated returns the clean termination of an already-exited rank, nil
// for a paused one.
func (s *Snapshot) Terminated() *Termination { return s.term }

// Bytes returns the resident size of the snapshot: page data plus the
// private console/output copies.
func (s *Snapshot) Bytes() int64 {
	return s.mem.Bytes() + int64(len(s.console)) + int64(len(s.output))
}

// FreshBytes returns the part of Bytes the snapshot does not share with the
// snapshot its machine was forked from: the pages written since, plus the
// console/output copies. A cache holding a chain of snapshots pays Bytes for
// the first and FreshBytes for each later one.
func (s *Snapshot) FreshBytes() int64 {
	return s.mem.FreshBytes() + int64(len(s.console)) + int64(len(s.output))
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
	m := &Machine{
		Name:         prog.Name,
		PID:          cfg.PID,
		Rank:         cfg.Rank,
		WorldSize:    cfg.WorldSize,
		Prog:         prog,
		Mem:          NewMemoryFromImage(snap.mem),
		Trans:        tcg.NewSharedTranslator(prog, cfg.BaseCache),
		Shadow:       snap.shadow.Clone(),
		TaintEnabled: snap.taintOn,
		regs:         snap.regs,
		pc:           snap.pc,
		flags:        snap.flags,
		heapBrk:      snap.heapBrk,
		maxInstr:     cfg.MaxInstructions,
		sampleIv:     cfg.SampleInterval,
		noFastPath:   cfg.NoFastPath,
		console:      sealed(snap.console),
		output:       sealed(snap.output),
		counters:     snap.counters,
		forkBase:     &snap.counters,
		mpi:          cfg.MPI,
		obsReg:       cfg.Obs,
		events:       cfg.Events,
		resumesIn:    snap.pausedSys,
	}
	m.Trans.AttachObs(cfg.Obs)
	if m.maxInstr == 0 {
		m.maxInstr = DefaultMaxInstructions
	}
	if m.sampleIv == 0 {
		m.sampleIv = DefaultSampleInterval
	}
	// The restored count need not sit on the sampling grid.
	m.nextSample = (m.counters.Instructions/m.sampleIv + 1) * m.sampleIv
	if m.WorldSize == 0 {
		m.WorldSize = 1
	}
	if snap.term != nil {
		tt := *snap.term
		m.term = &tt
	}
	return m
}
