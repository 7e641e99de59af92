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
	"sync"
	"sync/atomic"
	"time"

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

// World is a set of ranks executing the same guest program (SPMD).
type World struct {
	size  int
	ranks []rankState

	// delivered counts messages handed to mailboxes; the deadlock watchdog
	// uses it as a progress indicator.
	delivered atomic.Uint64

	barrier barrier

	// abortCh is closed when the world stops early (abort, interrupt, pause):
	// barrier waits watch it; mailbox waits are released by mailbox.stop.
	abortCh   chan struct{}
	abortOnce sync.Once
	aborted   atomic.Bool

	// watching is set once the deadlock watchdog runs; stopWatch stops it. It
	// starts at the world's first blocked MPI wait (env.block), so a world
	// whose ranks never wait runs without one.
	watching  atomic.Bool
	stopWatch chan struct{}

	// panicMsg is the first simulator panic a rank raised, re-raised by Run.
	panicMu  sync.Mutex
	panicMsg string

	// pausing is set when the abort in flight is a fork-point pause rather
	// than a failure; pauseDirty is raised by any rank whose in-progress MPI
	// call had already made externally visible progress (a delivered message
	// or a consumed match) when the pause landed — rewinding such a call
	// would replay the progress, so the snapshot is rejected and the
	// campaign falls back to a from-scratch run.
	pausing    atomic.Bool
	pauseDirty atomic.Bool

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
	blocked atomic.Bool
	done    atomic.Bool
	term    vm.Termination
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
		size:    cfg.Size,
		ranks:   make([]rankState, cfg.Size),
		barrier: barrier{n: cfg.Size},
		abortCh: make(chan struct{}),
		obs:     newWorldObs(cfg.Obs),
		tracer:  cfg.Tracer,
		events:  cfg.Events,
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
		rs.mailbox.init()
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
// Each rank runs on a goroutine of its own, except that a world with one
// rank left to run (a serial guest, or a snapshot whose other ranks had
// already exited) runs it on the caller's. A panic inside a rank (a simulator
// bug, not a guest fault) is captured, the remaining ranks are aborted so
// nothing blocks forever, and the panic is re-raised on the caller's
// goroutine once every rank has drained — campaign workers isolate it there
// without losing the process.
func (w *World) Run() []vm.Termination {
	var only *rankState
	runnable := 0
	for r := range w.ranks {
		rs := &w.ranks[r]
		// A rank restored from a snapshot may already have terminated in the
		// prefix (clean exit before the fork point): record it and run nothing.
		if t := rs.m.Terminated(); t != nil {
			rs.term = *t
			rs.done.Store(true)
			continue
		}
		runnable++
		only = rs
	}
	if runnable == 1 {
		w.runRank(only)
	} else if runnable > 1 {
		var wg sync.WaitGroup
		for r := range w.ranks {
			if rs := &w.ranks[r]; !rs.done.Load() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.runRank(rs)
				}()
			}
		}
		wg.Wait()
	}
	if w.stopWatch != nil {
		close(w.stopWatch)
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

// runRank executes one rank to its termination and stops the rest of the
// world if that termination calls for it.
func (w *World) runRank(rs *rankState) {
	defer func() {
		if r := recover(); r != nil {
			w.panicMu.Lock()
			if w.panicMsg == "" {
				w.panicMsg = fmt.Sprintf("rank %d: %v\n%s", rs.id, r, debug.Stack())
			}
			w.panicMu.Unlock()
			rs.done.Store(true)
			w.abortPeers(rs.id, vm.Termination{
				Reason: vm.ReasonMPIError,
				Msg:    fmt.Sprintf("peer rank %d terminated: simulator panic", rs.id),
			})
		}
	}()
	sp := w.tracer.StartSpanTID("rank.run", rs.id)
	term := rs.m.Run()
	sp.SetArg("reason", term.Reason.String())
	sp.End()
	rs.term = term
	rs.done.Store(true)
	switch {
	case term.Reason == vm.ReasonPaused:
		// A fork-point pause initiated by this rank: suspend the whole world
		// at this quiescent boundary instead of treating the stop as a failure.
		w.Pause(term)
	case term.Abnormal():
		w.abortPeers(rs.id, term)
	}
}

// Interrupt force-terminates every rank with the given termination. The
// per-run wall-clock watchdog uses it to enforce deadlines: like an mpirun
// kill, running ranks observe the abort at their next block boundary and
// ranks blocked in MPI waits are woken immediately.
func (w *World) Interrupt(t vm.Termination) {
	w.abortOnce.Do(func() {
		w.aborted.Store(true)
		if w.obs != nil {
			w.obs.aborts.Inc()
		}
		w.tracer.Instant("mpi.interrupt", 0)
		w.events.Emit("world_interrupt", -1, -1, uint64(t.Reason), 0, t.Msg)
		w.stop(-1, t)
	})
}

// Pause suspends every rank with a ReasonPaused termination for a
// fork-point snapshot. Running ranks stop at their next block boundary (a
// resumable pc); ranks blocked in MPI waits are woken and rewound to the
// blocking syscall instruction (see vm.Machine.Snapshot). Pause shares
// abortOnce with the failure aborts, so a pause racing a real abort loses
// cleanly — the prefix run then fails validation and the caller falls back.
func (w *World) Pause(t vm.Termination) {
	w.pausing.Store(true)
	w.abortOnce.Do(func() {
		w.tracer.Instant("mpi.pause", 0)
		w.events.Emit("world_pause", -1, -1, uint64(t.Reason), 0, t.Msg)
		w.stop(-1, t)
	})
}

// PauseDirty reports whether any rank's interrupted MPI call had made
// externally visible progress, making the pause point non-resumable.
func (w *World) PauseDirty() bool { return w.pauseDirty.Load() }

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

// stop aborts every rank but skip (-1: none) with t and releases every
// blocked MPI wait. It runs under abortOnce: a world stops early once.
func (w *World) stop(skip int, t vm.Termination) {
	for r := range w.ranks {
		if r != skip {
			w.ranks[r].m.Abort(t)
		}
	}
	close(w.abortCh)
	w.barrier.abort()
	for r := range w.ranks {
		w.ranks[r].mailbox.stop()
	}
}

// abortPeers kills all other ranks after rank `from` failed. The failed rank
// keeps its own termination; it has stopped and waits on nothing.
func (w *World) abortPeers(from int, cause vm.Termination) {
	w.abortOnce.Do(func() {
		w.aborted.Store(true)
		if w.obs != nil {
			w.obs.aborts.Inc()
		}
		w.tracer.Instant("mpi.abort_peers", from)
		w.events.Emit("world_abort", -1, from, uint64(cause.Reason), 0, cause.Msg)
		w.stop(from, vm.Termination{
			Reason: vm.ReasonMPIError,
			Msg:    fmt.Sprintf("peer rank %d terminated: %s", from, cause),
		})
	})
}

// abortAll kills every rank (deadlock detected).
func (w *World) abortAll(msg string) {
	w.abortOnce.Do(func() {
		w.aborted.Store(true)
		if w.obs != nil {
			w.obs.aborts.Inc()
		}
		w.events.Emit("world_deadlock", -1, -1, 0, 0, msg)
		w.stop(-1, vm.Termination{Reason: vm.ReasonMPIError, Msg: msg})
	})
}

// startWatchdog starts the deadlock watchdog unless it already runs. Ranks
// call it as they enter a blocked MPI wait, the only state the watchdog acts
// on, so Run reads stopWatch after every rank has finished.
func (w *World) startWatchdog() {
	if w.watching.CompareAndSwap(false, true) {
		w.stopWatch = make(chan struct{})
		go w.watchdog(w.stopWatch)
	}
}

// watchdog aborts the world when every live rank is blocked in MPI and no
// message has been delivered between two consecutive polls — i.e. deadlock,
// typically fault-induced (a sender crashed out of its send, or control
// flow skipped a matching send).
func (w *World) watchdog(stop <-chan struct{}) {
	// A world is declared deadlocked when, over a sustained window, every
	// live rank sits in a blocked MPI wait, every mailbox is empty (no
	// receiver has undrained input), and no message was delivered. The
	// window is generous because under parallel campaigns whole worlds can
	// be descheduled for milliseconds; fault-induced deadlocks are
	// permanent, so detection latency only costs wall-clock, never
	// correctness.
	const (
		poll         = 200 * time.Microsecond
		stableNeeded = 25 // 5ms of provable no-progress
	)
	var lastDelivered uint64
	stable := 0
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		allIdle := true
		anyBlocked := false
		mailboxesEmpty := true
		for r := range w.ranks {
			rs := &w.ranks[r]
			if rs.done.Load() {
				continue
			}
			if rs.blocked.Load() {
				anyBlocked = true
			} else {
				allIdle = false
			}
			if rs.mailbox.len() > 0 {
				mailboxesEmpty = false
			}
		}
		d := w.delivered.Load()
		if allIdle && anyBlocked && mailboxesEmpty && d == lastDelivered {
			stable++
			if stable >= stableNeeded {
				if w.obs != nil {
					w.obs.deadlocks.Inc()
				}
				w.tracer.Instant("mpi.deadlock", 0)
				w.abortAll("deadlock detected: all live ranks blocked in MPI")
				return
			}
		} else {
			stable = 0
		}
		lastDelivered = d
	}
}

// barrier is an abortable N-party barrier usable repeatedly. The release
// channel of a generation exists only while a party waits in it.
type barrier struct {
	mu      sync.Mutex
	n       int
	arrived int
	gen     int
	release chan struct{}
	broken  bool
}

// wait blocks until all n parties arrive or the barrier is aborted; it
// returns false when aborted.
func (b *barrier) wait(abortCh <-chan struct{}) bool {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return false
	}
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.releaseWaiters()
		b.mu.Unlock()
		return true
	}
	if b.release == nil {
		b.release = make(chan struct{})
	}
	release := b.release
	myGen := b.gen
	b.mu.Unlock()
	select {
	case <-release:
		b.mu.Lock()
		// The generation check distinguishes a completion that raced an
		// abort from a pure abort: if the generation advanced past ours, all
		// n parties arrived and this waiter was released legitimately — the
		// barrier completed even if the world was broken immediately after.
		completed := b.gen > myGen
		broken := b.broken
		b.mu.Unlock()
		return completed || !broken
	case <-abortCh:
		return false
	}
}

// releaseWaiters wakes the parties waiting in the current generation. The
// caller holds mu.
func (b *barrier) releaseWaiters() {
	if b.release != nil {
		close(b.release)
		b.release = nil
	}
}

// abort breaks the barrier: waiters return false and later arrivals do not
// block.
func (b *barrier) abort() {
	b.mu.Lock()
	b.broken = true
	b.releaseWaiters()
	b.mu.Unlock()
}
