// Package mpi implements a simulated MPI runtime for guest programs: one
// virtual machine per rank, message passing with tag/source matching,
// collectives (barrier, broadcast, reduce), argument validation that raises
// MPI runtime errors, peer-failure propagation (mpirun-style abort), and
// deadlock detection.
//
// The runtime plays the role of the MPI library plus mpirun in the paper's
// testbed. Chaser does not modify it: cross-rank taint coordination happens
// in syscall hooks installed on each machine, exactly as the original hooks
// MPI_Send/MPI_Recv inside the guest.
package mpi

import (
	"fmt"
	"runtime/debug"

	"chaser/internal/isa"
	"chaser/internal/obs"
	"chaser/internal/vm"
)

// MaxTag is the largest user tag accepted by the runtime; reserved internal
// tags for collectives sit above it.
const MaxTag = 1 << 20

// Reserved internal tags for collective operations.
const (
	tagBcast     = MaxTag + 1
	tagReduce    = MaxTag + 2
	tagAllreduce = MaxTag + 3
)

// Message is one in-flight MPI message.
type Message struct {
	Src, Dst, Tag int
	Dtype         isa.Datatype
	Count         int64
	Data          []byte
}

// World is a set of ranks executing the same guest program (SPMD). One rank
// runs at a time, on the goroutine that called Run (sched.go), so everything
// below Interrupt's reach is plain data.
type World struct {
	size  int
	ranks []rankState

	// stopped is set when the world stops early (abort, deadlock, pause): a
	// rank that would have to wait fails its MPI call instead.
	stopped bool

	// The barrier: ranks arrived in the current generation, and the number of
	// generations completed.
	arrived    int
	barrierGen int

	// panicMsg is the first simulator panic a rank raised, re-raised by Run.
	panicMsg string

	// pausing is set when the stop in flight is a fork-point pause rather
	// than a failure; pauseDirty is raised by any rank whose in-progress MPI
	// call had already made externally visible progress (a delivered message
	// or a consumed match) when the pause landed — rewinding such a call
	// would replay the progress, so the snapshot is rejected and the
	// campaign falls back to a from-scratch run.
	pausing    bool
	pauseDirty bool

	obs    *worldObs
	tracer *obs.Tracer
	events *obs.Sink
}

type rankState struct {
	id      int
	m       *vm.Machine
	env     env
	mailbox mailbox
	pending []Message // received but not yet matched
	term    vm.Termination

	// status is the rank's place in the schedule; what a waiting rank waits
	// for is wantSrc/wantTag (waitRecv: a message to match) or waitDst
	// (waitSend: room in that rank's mailbox).
	status           status
	wantSrc, wantTag int
	waitDst          int
	// reentering marks a rank that has yet to re-enter the MPI call its
	// snapshot was taken in (see next).
	reentering bool
	// span covers the rank's execution from its first turn to its end.
	span *obs.Span
}

// Config parameterizes world construction.
type Config struct {
	// Size is the number of ranks (required, >= 1).
	Size int
	// Machine returns the vm.Config for a rank. Rank/WorldSize/MPI fields
	// are overwritten by the world. Nil uses defaults.
	Machine func(rank int) vm.Config
	// NewMachine, when non-nil, constructs the rank's machine instead of
	// vm.New — the fork path uses it to resume machines from snapshots. The
	// supplied config already has Rank/WorldSize/MPI filled in.
	NewMachine func(rank int, mc vm.Config) *vm.Machine
	// Mailboxes and Pendings, when non-nil, preload each rank's undelivered
	// message queues (restoring a paused world's in-flight state). Indexed
	// by rank; Message.Data is shared read-only with the snapshot, so
	// callers pass per-fork copies of the slice headers only.
	Mailboxes [][]Message
	Pendings  [][]Message
	// Setup runs after each machine is created and before it starts; Chaser
	// instruments target ranks here (the VMI process-creation event).
	Setup func(rank int, m *vm.Machine)
	// Obs, when non-nil, receives runtime telemetry (message counts, wait
	// times, aborts). Nil disables it.
	Obs *obs.Registry
	// Tracer, when non-nil, records one span per rank execution (thread id =
	// rank, so traces render as per-rank swimlanes).
	Tracer *obs.Tracer
	// Events, when non-nil, receives world-lifecycle events (aborts,
	// deadlocks, interrupts). Nil disables them.
	Events *obs.Sink
}

// NewWorld creates a world of cfg.Size ranks all running prog.
func NewWorld(prog *isa.Program, cfg Config) (*World, error) {
	if cfg.Size < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", cfg.Size)
	}
	w := &World{
		size:   cfg.Size,
		ranks:  make([]rankState, cfg.Size),
		obs:    newWorldObs(cfg.Obs),
		tracer: cfg.Tracer,
		events: cfg.Events,
	}
	for r := range w.ranks {
		var mc vm.Config
		if cfg.Machine != nil {
			mc = cfg.Machine(r)
		}
		mc.Rank = r
		mc.WorldSize = cfg.Size
		rs := &w.ranks[r]
		rs.id = r
		rs.env = env{w: w, rs: rs}
		mc.MPI = &rs.env
		if cfg.NewMachine != nil {
			rs.m = cfg.NewMachine(r, mc)
		} else {
			rs.m = vm.New(prog, mc)
		}
		rs.m.PID = 1000 + r
		if cfg.Mailboxes != nil {
			rs.mailbox.load(cfg.Mailboxes[r])
		}
		if cfg.Pendings != nil {
			rs.pending = append([]Message(nil), cfg.Pendings[r]...)
		}
	}
	if cfg.Setup != nil {
		for r := range w.ranks {
			cfg.Setup(r, w.ranks[r].m)
		}
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Machine returns the virtual machine of one rank.
func (w *World) Machine(rank int) *vm.Machine { return w.ranks[rank].m }

// Run executes all ranks to completion and returns their terminations
// indexed by rank. If any rank terminates abnormally the remaining ranks
// are aborted, as mpirun does.
//
// One rank runs at a time, in an order that is a function of the world's
// state alone, all of them on the caller's goroutine (sched.go). A panic
// inside a rank (a simulator bug, not a guest fault) is captured, the
// remaining ranks are aborted so that each ends where it stands, and the
// panic is re-raised once every rank has drained — campaign workers isolate
// it there without losing the process.
func (w *World) Run() []vm.Termination {
	for r := range w.ranks {
		rs := &w.ranks[r]
		// A rank restored from a snapshot may already have terminated in the
		// prefix (clean exit before the fork point): record it and run nothing.
		if t := rs.m.Terminated(); t != nil {
			rs.term = *t
			rs.status = done
		}
		// A rank restored from a snapshot taken while it was suspended in an
		// MPI call goes back into that call before any other rank runs.
		rs.reentering = rs.m.ResumesIn() != 0
	}
	for rs := w.next(); rs != nil; rs = w.next() {
		w.runRank(rs)
	}
	if w.panicMsg != "" {
		panic("mpi: " + w.panicMsg)
	}
	out := make([]vm.Termination, w.size)
	for r := range w.ranks {
		out[r] = w.ranks[r].term
	}
	return out
}

// runRank gives rank rs the baton: its machine executes until it ends, which
// stops the rest of the world if that termination calls for it, or steps
// aside inside or after an MPI call, which has set its status.
func (w *World) runRank(rs *rankState) {
	defer func() {
		if r := recover(); r != nil {
			if w.panicMsg == "" {
				w.panicMsg = fmt.Sprintf("rank %d: %v\n%s", rs.id, r, debug.Stack())
			}
			rs.status = done
			w.abortPeers(rs.id, vm.Termination{
				Reason: vm.ReasonMPIError,
				Msg:    fmt.Sprintf("peer rank %d terminated: simulator panic", rs.id),
			})
		}
	}()
	if rs.span == nil {
		rs.span = w.tracer.StartSpanTID("rank.run", rs.id)
	}
	term := rs.m.RunSlice()
	if term == nil {
		return
	}
	rs.span.SetArg("reason", term.Reason.String())
	rs.span.End()
	rs.term = *term
	rs.status = done
	switch {
	case term.Reason == vm.ReasonPaused:
		// A fork-point pause initiated by this rank: suspend the whole world
		// at this quiescent boundary instead of treating the stop as a failure.
		w.Pause(*term)
	case term.Abnormal():
		w.abortPeers(rs.id, *term)
	}
}

// Interrupt force-terminates every rank with the given termination. The
// per-run wall-clock deadline (core's RunTimeout) is enforced with it, and it
// is the one call into a running world that may come from another goroutine:
// it touches nothing but the machines' abort requests. Like an mpirun kill,
// the running rank observes the abort at its next block boundary and stops
// the world, and the ranks suspended in MPI waits then fail them.
func (w *World) Interrupt(t vm.Termination) {
	if w.abortMachines(t) {
		if w.obs != nil {
			w.obs.aborts.Inc()
		}
		w.tracer.Instant("mpi.interrupt", 0)
		w.events.Emit("world_interrupt", -1, -1, uint64(t.Reason), 0, t.Msg)
	}
}

// Pause suspends every rank with a ReasonPaused termination for a fork-point
// snapshot. It is called for the rank that holds the baton (the fork target,
// from runRank, or a hook running on a rank), so it lands at a logical
// instant: every other rank is suspended in or after an MPI call, has not
// started, or is done. A waiting rank fails its wait and is rewound to the
// blocking syscall instruction (see vm.Machine.Snapshot); a rank whose wait
// was already satisfied completes the call and stops at its next block
// boundary, where one that had stepped aside after a call stops at once. A pause
// after a real abort loses cleanly — the prefix run then fails validation
// and the caller falls back.
func (w *World) Pause(t vm.Termination) {
	w.pausing = true
	if w.stop(t) {
		w.tracer.Instant("mpi.pause", 0)
		w.events.Emit("world_pause", -1, -1, uint64(t.Reason), 0, t.Msg)
	}
}

// PauseDirty reports whether any rank's interrupted MPI call had made
// externally visible progress, making the pause point non-resumable.
func (w *World) PauseDirty() bool { return w.pauseDirty }

// QueueSnapshot captures every rank's undelivered messages: the mailbox
// contents (in delivery order) and the received-but-unmatched pending list.
// It drains the mailboxes destructively, so it is only legal on a world that
// has fully stopped (after Run returns).
func (w *World) QueueSnapshot() (mailboxes, pendings [][]Message) {
	mailboxes = make([][]Message, w.size)
	pendings = make([][]Message, w.size)
	for r := range w.ranks {
		mailboxes[r] = w.ranks[r].mailbox.drain()
		pendings[r] = append([]Message(nil), w.ranks[r].pending...)
	}
	return mailboxes, pendings
}

// abortMachines asks every machine to terminate with t (the first request a
// machine gets is the one it keeps) and reports whether this was the world's
// first such request — rank 0's machine is the tie-breaker between an
// Interrupt and a stop.
func (w *World) abortMachines(t vm.Termination) bool {
	first := w.ranks[0].m.Abort(t)
	for r := 1; r < w.size; r++ {
		w.ranks[r].m.Abort(t)
	}
	return first
}

// stop ends the world early, once: every machine is asked to terminate with
// t and every waiting rank is made runnable to find that out. It reports
// whether this call is what stopped the world (not an earlier stop, nor an
// Interrupt whose abort requests the machines already hold).
func (w *World) stop(t vm.Termination) bool {
	if w.stopped {
		return false
	}
	w.stopped = true
	for r := range w.ranks {
		if rs := &w.ranks[r]; rs.status != done {
			rs.status = runnable
		}
	}
	return w.abortMachines(t)
}

// abortPeers kills all other ranks after rank `from` failed. The failed rank
// keeps its own termination; it has stopped and waits on nothing.
func (w *World) abortPeers(from int, cause vm.Termination) {
	if w.stop(vm.Termination{
		Reason: vm.ReasonMPIError,
		Msg:    fmt.Sprintf("peer rank %d terminated: %s", from, cause),
	}) {
		if w.obs != nil {
			w.obs.aborts.Inc()
		}
		w.tracer.Instant("mpi.abort_peers", from)
		w.events.Emit("world_abort", -1, from, uint64(cause.Reason), 0, cause.Msg)
	}
}

// deadlock kills every rank: no rank can run and not all are done, so each
// live one waits in MPI for something no rank is left to do — typically
// fault-induced (a sender crashed out of its send, or control flow skipped a
// matching send).
func (w *World) deadlock() {
	const msg = "deadlock detected: all live ranks blocked in MPI"
	if w.obs != nil {
		w.obs.deadlocks.Inc()
	}
	w.tracer.Instant("mpi.deadlock", 0)
	if w.stop(vm.Termination{Reason: vm.ReasonMPIError, Msg: msg}) {
		if w.obs != nil {
			w.obs.aborts.Inc()
		}
		w.events.Emit("world_deadlock", -1, -1, 0, 0, msg)
	}
}
