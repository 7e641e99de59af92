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
	"bytes"
	"fmt"
	"runtime/debug"
	"slices"
	"unsafe"

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
// below Interrupt's reach is plain data, and so is what the machines' hooks
// write.
type World struct {
	size  int
	ranks []rankState
	// terms is what Run returns, kept by Reset.
	terms []vm.Termination

	// stopped is set when the world stops early (abort, deadlock): a rank
	// that would have to wait fails its MPI call instead.
	stopped bool
	// paused is set when the fork target pauses: Run hands out no further
	// baton.
	paused bool

	// The barrier: ranks arrived in the current generation, and the number of
	// generations completed.
	arrived    int
	barrierGen int

	// panicMsg is the first simulator panic a rank raised, re-raised by Run.
	panicMsg string

	// obs are the instruments of reg, the registry they came from.
	obs    *worldObs
	reg    *obs.Registry
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
	place
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
	// State, when non-nil, restores the world a fork-point pause left
	// (World.State) around the machines NewMachine resumes from their
	// snapshots.
	State *State
	// Setup runs after each machine is created and before it starts; Chaser
	// attaches to each machine and instruments target ranks here.
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
	w := new(World)
	if err := w.Reset(prog, cfg); err != nil {
		return nil, err
	}
	return w, nil
}

// Reset makes w the world NewWorld(prog, cfg) creates, in the shell of the
// world w was: its rank table, pending queues and mailbox rings are emptied
// and reused, and so are its instruments when cfg.Obs is the registry they
// came from. Every machine of the world w was must have stopped, with nothing
// left to run, abort or interrupt it: the ranks' machines are replaced (a
// recycled one may be the very struct a rank had). The zero World is an
// empty shell.
func (w *World) Reset(prog *isa.Program, cfg Config) error {
	if cfg.Size < 1 {
		return fmt.Errorf("mpi: world size %d < 1", cfg.Size)
	}
	if cfg.State != nil && len(cfg.State.ranks) != cfg.Size {
		return fmt.Errorf("mpi: state of %d ranks for a world of %d", len(cfg.State.ranks), cfg.Size)
	}
	ranks := w.ranks
	if cap(ranks) < cfg.Size {
		ranks = make([]rankState, cfg.Size)
	}
	ranks = ranks[:cfg.Size]
	for r := range ranks {
		ranks[r].empty()
	}
	wobs, reg := w.obs, w.reg
	if reg != cfg.Obs {
		wobs, reg = newWorldObs(cfg.Obs), cfg.Obs
	}
	*w = World{
		size:   cfg.Size,
		ranks:  ranks,
		terms:  w.terms,
		obs:    wobs,
		reg:    reg,
		tracer: cfg.Tracer,
		events: cfg.Events,
	}
	if st := cfg.State; st != nil {
		w.arrived, w.barrierGen = st.arrived, st.barrierGen
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
		if cfg.State != nil {
			s := &cfg.State.ranks[r]
			rs.place, rs.env.callState = s.place, s.callState
			rs.env.acc = bytes.Clone(s.acc) // combine writes to it
			rs.mailbox.load(s.mailbox)
			rs.pending = append(rs.pending, s.pending...)
		}
	}
	if cfg.Setup != nil {
		for r := range w.ranks {
			cfg.Setup(r, w.ranks[r].m)
		}
	}
	return nil
}

// empty returns a rank to the zero rankState, keeping the storage of its
// pending queue and mailbox ring emptied.
func (rs *rankState) empty() {
	clear(rs.pending)
	*rs = rankState{pending: rs.pending[:0], mailbox: rs.mailbox.emptied()}
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
//
// When the fork target pauses (vm.ReasonPaused), Run returns at once with
// that termination on the target and a zero one on every rank still live:
// each stays where the schedule left it — not started, stepped aside after an
// MPI call, or suspended inside one — and State captures the world.
//
// The slice is the world's own: the Run after its next Reset writes over it.
func (w *World) Run() []vm.Termination {
	for r := range w.ranks {
		rs := &w.ranks[r]
		// A rank restored from a snapshot may already have terminated in the
		// prefix (clean exit before the fork point): record it and run nothing.
		if t := rs.m.Terminated(); t != nil {
			rs.term = *t
			rs.status = done
		}
	}
	for rs := w.next(); rs != nil && !w.paused; rs = w.next() {
		w.runRank(rs)
	}
	if w.panicMsg != "" {
		panic("mpi: " + w.panicMsg)
	}
	w.terms = w.terms[:0]
	for r := range w.ranks {
		w.terms = append(w.terms, w.ranks[r].term)
	}
	return w.terms
}

// runRank gives rank rs the baton: its machine executes until it ends, which
// stops the rest of the world if that termination calls for it, or pauses it,
// or steps aside inside or after an MPI call, which has set its status.
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
	rs.term = *term
	if term.Reason == vm.ReasonPaused {
		// The rank stays runnable, at the instruction it paused in front of.
		w.paused = true
		return
	}
	rs.span.SetArg("reason", term.Reason.String())
	rs.span.End()
	rs.status = done
	if term.Abnormal() {
		w.abortPeers(rs.id, *term)
	}
}

// Resume lets a world stopped by a fork-point pause go on: the paused rank's
// machine resumes, and the next Run hands the baton to the lowest runnable
// rank, which is the paused one (sched.go).
func (w *World) Resume() {
	for r := range w.ranks {
		if rs := &w.ranks[r]; rs.term.Reason == vm.ReasonPaused {
			rs.m.Resume()
			rs.term = vm.Termination{}
		}
	}
	w.paused = false
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
		w.events.Emit("world_interrupt", -1, -1, uint64(t.Reason), 0, t.Message())
	}
}

// State is a world stopped by a fork-point pause, as World.State captures it
// and Config.State restores it: every rank's queues, its place in the schedule
// and what its MPI call in progress has done so far, and the barrier. The
// machines are captured apart (vm.Snapshot). A State is immutable: message
// payloads are shared read-only with every world restored from it, and what a
// world writes is copied.
type State struct {
	ranks               []rankSnap
	arrived, barrierGen int
}

// rankSnap is one rank of a State.
type rankSnap struct {
	place
	callState
	mailbox, pending []Message
}

// State captures the world Run left on a fork-point pause.
func (w *World) State() *State {
	st := &State{ranks: make([]rankSnap, w.size), arrived: w.arrived, barrierGen: w.barrierGen}
	for r := range w.ranks {
		rs := &w.ranks[r]
		s := &st.ranks[r]
		s.place, s.callState = rs.place, rs.env.callState
		s.acc = bytes.Clone(s.acc)
		s.mailbox, s.pending = rs.mailbox.messages(), slices.Clone(rs.pending)
	}
	return st
}

// Bytes returns the heap the state holds: its ranks, their queued messages
// with payloads, and reduction accumulators.
func (st *State) Bytes() int64 {
	n := int64(unsafe.Sizeof(*st)) + int64(cap(st.ranks))*int64(unsafe.Sizeof(rankSnap{}))
	for r := range st.ranks {
		s := &st.ranks[r]
		n += int64(cap(s.acc))
		for _, q := range [][]Message{s.mailbox, s.pending} {
			n += int64(cap(q)) * int64(unsafe.Sizeof(Message{}))
			for _, msg := range q {
				n += int64(len(msg.Data))
			}
		}
	}
	return n
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
// keeps its own termination; it has stopped and waits on nothing. With no
// live peer — a world of one, or every other rank done — there is nothing to
// abort: nothing is stopped, counted or emitted.
func (w *World) abortPeers(from int, cause vm.Termination) {
	live := false
	for r := range w.ranks {
		live = live || (r != from && w.ranks[r].status != done)
	}
	if live && w.stop(vm.Termination{
		Reason: vm.ReasonMPIError,
		Msg:    fmt.Sprintf("peer rank %d terminated: %s", from, cause),
	}) {
		if w.obs != nil {
			w.obs.aborts.Inc()
		}
		w.tracer.Instant("mpi.abort_peers", from)
		if w.events != nil {
			w.events.Emit("world_abort", -1, from, uint64(cause.Reason), 0, cause.Message())
		}
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

// Compare reports to diff each way st differs from o, a state of as many
// ranks: a rank's place in the schedule ("schedule"), its MPI call in
// progress ("call") or its queued messages ("mailbox", "pending"), and the
// barrier (rank -1).
func (st *State) Compare(o *State, diff func(rank int, what string)) {
	if st.arrived != o.arrived || st.barrierGen != o.barrierGen {
		diff(-1, "barrier")
	}
	for r := range st.ranks {
		a, b := &st.ranks[r], &o.ranks[r]
		if a.place != b.place {
			diff(r, "schedule")
		}
		if a.step != b.step || a.gen != b.gen || !bytes.Equal(a.acc, b.acc) {
			diff(r, "call")
		}
		if !sameMessages(a.mailbox, b.mailbox) {
			diff(r, "mailbox")
		}
		if !sameMessages(a.pending, b.pending) {
			diff(r, "pending")
		}
	}
}

func sameMessages(a, b []Message) bool {
	return slices.EqualFunc(a, b, func(x, y Message) bool {
		return x.Src == y.Src && x.Dst == y.Dst && x.Tag == y.Tag && x.Dtype == y.Dtype &&
			x.Count == y.Count && bytes.Equal(x.Data, y.Data)
	})
}
