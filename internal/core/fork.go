package core

import (
	"fmt"
	"unsafe"

	"chaser/internal/isa"
	"chaser/internal/mpi"
	"chaser/internal/trace"
	"chaser/internal/vm"
)

// Fork-point run multiplexing: every run of a fault-injection campaign
// executes the golden run up to its injection trigger, then diverges. Instead
// of replaying that prefix per run, PrefixRun executes it once — the world
// stops where the baton is when the target reaches a fork site — and captures
// a WorldSnapshot; RunForked then resumes any number of injected
// continuations from it via copy-on-write machine snapshots, for any trigger
// at or after the site. PrefixRunFrom
// advances an existing snapshot to a later site, so a ladder of snapshots
// over many sites costs one pass over the golden run, consecutive rungs
// sharing every page the guest did not write in between (checkpoint-restore
// as in CHAOS). A forked run is bitwise equivalent to a from-scratch
// run (registers, memory, counters, outputs, taint) except for translation-
// block cache statistics (TBsExecuted/ChainedTBs/FastPathTBs), which depend
// on block boundaries and chain-table warmth and appear in no outcome
// classification.

// ForkSite identifies an injection trigger: the site.N-th dynamic execution
// of a targeted instruction on rank site.Rank.
type ForkSite struct {
	Rank int
	N    uint64
}

// resumeState carries the per-rank injector bookkeeping captured at a fork
// point into forked runs: the target's dynamic execution count and every
// rank's per-flow MPI sequence numbers. The sequence numbers are copied per
// fork at process creation (concurrent forks must not share them).
type resumeState struct {
	execCount []uint64
	sendSeq   []flowSeqs
	recvSeq   []flowSeqs
}

// WorldSnapshot is a complete MPI world paused at a fork site: one machine
// snapshot per rank, the world's own state (queues, schedule, MPI calls in
// progress), injector resume state, and the taint timeline accumulated so
// far. It is immutable and shareable across any number of concurrent
// RunForked calls.
type WorldSnapshot struct {
	prog      *isa.Program
	worldSize int
	site      ForkSite
	machines  []*vm.Snapshot
	world     *mpi.State
	resume    *resumeState
	samples   []trace.TimelinePoint
	bytes     int64
	fresh     int64
}

// Site returns the fork site the snapshot was captured at.
func (ws *WorldSnapshot) Site() ForkSite { return ws.site }

// PC returns rank's guest pc in the snapshot. The site's rank is paused in
// front of the targeted instruction its site counts, so at that rank this is
// the instruction a run forked with the site's own N injects at.
func (ws *WorldSnapshot) PC(rank int) uint64 { return ws.machines[rank].PC() }

// Bytes returns the heap the snapshot holds: every rank's pages and
// vm.Snapshot, the world's state with its queued payloads, the injector's
// resume state and the timeline so far.
func (ws *WorldSnapshot) Bytes() int64 { return ws.bytes }

// FreshBytes returns the part of Bytes the snapshot does not share with the
// snapshot it was advanced from (all of it for a snapshot built from program
// entry) — everything but the pages the guest did not write in between: what
// keeping it resident beside its predecessor costs.
func (ws *WorldSnapshot) FreshBytes() int64 { return ws.fresh }

// errPaused is returned by the pause injector so the Chaser records nothing
// and detaches nothing: the pause is infrastructure, not an injection.
var errPaused = fmt.Errorf("core: fork-point pause")

// pauseInjector suspends the machine at the trigger instead of corrupting
// it. The helper runs in front of the target instruction, so the pause pc is
// the instruction's own address and resuming re-executes it — at which point
// the forked run's real injector fires with the identical dynamic context.
type pauseInjector struct{}

func (pauseInjector) Inject(ctx *Context) (InjectionRecord, error) {
	ctx.Machine.PauseAt(ctx.Op.GuestPC)
	return InjectionRecord{}, errPaused
}

// PrefixRun executes the golden prefix of cfg from program entry up to the
// fork site and captures the paused world; see PrefixRunFrom.
func PrefixRun(cfg RunConfig, site ForkSite) (*WorldSnapshot, error) {
	return PrefixRunFrom(cfg, nil, site)
}

// PrefixRunFrom executes the golden run of cfg up to the fork site and
// captures the paused world, starting from the snapshot `from` (an earlier
// site on the same rank) or, when from is nil, from program entry. cfg.Spec
// supplies the target application, the targeted opcodes and the Trace flag;
// its condition, injector and seed are ignored (the prefix is uninjected,
// and injector RNGs draw nothing before the trigger, so one snapshot serves
// tasks with any seed). The new snapshot shares with `from` every page the
// guest did not write in between.
//
// Every site the target reaches pauses: the world is kept as it stands, the
// other ranks wherever the schedule left them, inside an MPI call or not.
// PrefixRunFrom fails only when the target never reaches the site: the site
// never fires, or the world ends before it, its instruction budget or
// wall-clock deadline spent or a rank terminated abnormally. A caller that
// replays a golden run which reached the site under the same budget and no
// deadline — a campaign's ladder — therefore sees a failure only on a
// simulator bug. `from` is never modified.
func PrefixRunFrom(cfg RunConfig, from *WorldSnapshot, site ForkSite) (*WorldSnapshot, error) {
	if cfg.Prog == nil {
		return nil, fmt.Errorf("core: prefix run has no program")
	}
	if cfg.Spec == nil {
		return nil, fmt.Errorf("core: prefix run has no spec")
	}
	size := cfg.WorldSize
	if size == 0 {
		size = 1
	}
	if site.Rank < 0 || site.Rank >= size {
		return nil, fmt.Errorf("core: fork site rank %d out of world [0,%d)", site.Rank, size)
	}
	if site.N == 0 {
		return nil, fmt.Errorf("core: fork site N must be >= 1")
	}
	if from != nil {
		if err := from.compatible(cfg.Prog, size); err != nil {
			return nil, err
		}
		if from.site.Rank != site.Rank || from.site.N > site.N {
			return nil, fmt.Errorf("core: fork site (rank %d, n %d) is not downstream of snapshot (rank %d, n %d)",
				site.Rank, site.N, from.site.Rank, from.site.N)
		}
		if from.site.N == site.N {
			return from, nil
		}
	}

	prefix := cfg
	prefix.Spec = &Spec{
		Target:     cfg.Spec.Target,
		Ops:        cfg.Spec.Ops,
		TargetRank: site.Rank,
		Cond:       Deterministic{N: site.N},
		Inj:        pauseInjector{},
		Trace:      cfg.Spec.Trace,
	}
	// The prefix publishes nothing (no taint exists before the trigger), so
	// a private hub keeps per-run namespaced hubs identical to from-scratch
	// runs; events and tracing belong to real runs only.
	prefix.Hub = nil
	prefix.Events = nil
	prefix.Tracer = nil
	prefix.ExecTraceDepth = 0

	s := new(session) // no arena, never pooled
	ch, err := s.open(prefix, size)
	if err != nil {
		return nil, err
	}
	if from != nil {
		prefix.Spec.resume = from.resume
		ch.collector.SeedTimeline(from.samples)
	}
	ch.Arm(prefix.Spec)
	world, err := s.newWorld(prefix, size, from)
	if err != nil {
		return nil, err
	}
	stopWatchdog := armTimeout(world, prefix.Timeout)
	terms := world.Run()
	stopWatchdog()

	// A pause stops the world before any rank ends abnormally, and any such
	// end stops the world before the target can pause.
	if terms[site.Rank].Reason != vm.ReasonPaused {
		return nil, fmt.Errorf("core: fork site (rank %d, n %d) did not pause: target %s",
			site.Rank, site.N, terms[site.Rank])
	}
	st := ch.state(world.Machine(site.Rank))
	if st == nil || st.execCount != site.N {
		return nil, fmt.Errorf("core: fork site trigger mismatch (helper count %v, want %d)",
			stateCount(st), site.N)
	}

	ws := &WorldSnapshot{
		prog:      cfg.Prog,
		worldSize: size,
		site:      site,
		machines:  make([]*vm.Snapshot, size),
		resume: &resumeState{
			execCount: make([]uint64, size),
			sendSeq:   make([]flowSeqs, size),
			recvSeq:   make([]flowSeqs, size),
		},
	}
	for r := 0; r < size; r++ {
		m := world.Machine(r)
		snap, err := m.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", r, err)
		}
		ws.machines[r] = snap
		ws.bytes += snap.Bytes()
		ws.fresh += snap.FreshBytes()

		// The world runs no further, so its sequence numbers are the
		// snapshot's to keep; forks copy them.
		rst := ch.state(m)
		ws.resume.execCount[r] = rst.execCount
		ws.resume.sendSeq[r] = rst.sendSeq
		ws.resume.recvSeq[r] = rst.recvSeq
		// The pause rewound the helper's trigger execution on the target: the
		// re-executed instruction re-counts it.
		if r == site.Rank {
			ws.resume.execCount[r]--
		}
	}
	ws.world = world.State()
	ws.samples = ch.collector.Timeline()
	// Everything but the machines' shared pages is the snapshot's own, queued
	// payloads included: a few messages, and a rung may well outlive the one
	// it shares them with.
	own := ws.ownBytes()
	ws.bytes += own
	ws.fresh += own
	return ws, nil
}

// ownBytes is the heap the snapshot holds beside its machines: its own
// fields, the world state, the resume state and the timeline so far.
func (ws *WorldSnapshot) ownBytes() int64 {
	n := int64(unsafe.Sizeof(*ws)) + int64(cap(ws.machines))*int64(unsafe.Sizeof(ws.machines[0])) +
		ws.world.Bytes() + int64(cap(ws.samples))*int64(unsafe.Sizeof(trace.TimelinePoint{}))
	rs := ws.resume
	n += int64(unsafe.Sizeof(*rs)) + int64(cap(rs.execCount))*8 +
		int64(cap(rs.sendSeq)+cap(rs.recvSeq))*int64(unsafe.Sizeof(flowSeqs(nil)))
	for r := range rs.sendSeq {
		n += int64(cap(rs.sendSeq[r])+cap(rs.recvSeq[r])) * int64(unsafe.Sizeof(flowSeq{}))
	}
	return n
}

func stateCount(st *armState) interface{} {
	if st == nil {
		return "unarmed"
	}
	return st.execCount
}

// compatible reports whether the snapshot can seed a world of prog at the
// given size.
func (ws *WorldSnapshot) compatible(prog *isa.Program, size int) error {
	if prog != ws.prog {
		return fmt.Errorf("core: snapshot belongs to a different program")
	}
	if size != ws.worldSize {
		return fmt.Errorf("core: world size %d != snapshot world %d", size, ws.worldSize)
	}
	return nil
}

// RunForked executes one injected continuation from a world snapshot. The
// spec must trigger at or after the snapshot's fork site (same target rank,
// a deterministic condition with N no smaller than the site's): the restored
// execution count makes the trigger fire at the same global count a
// from-scratch run would see, after replaying only the executions between
// the site and N. Everything else — injector, bits, seed, tracing — varies
// freely across forks of one snapshot.
func RunForked(cfg RunConfig, ws *WorldSnapshot) (*RunResult, error) {
	if ws == nil {
		return nil, fmt.Errorf("core: nil world snapshot")
	}
	l, err := Lend(cfg, ws)
	if err != nil {
		return nil, err
	}
	return l.Own(), nil
}

// forkable refuses a run of cfg that cannot continue from the snapshot (see
// RunForked).
func (ws *WorldSnapshot) forkable(cfg RunConfig) error {
	size := cfg.WorldSize
	if size == 0 {
		size = 1
	}
	if err := ws.compatible(cfg.Prog, size); err != nil {
		return err
	}
	if cfg.Spec == nil {
		return fmt.Errorf("core: forked run has no spec")
	}
	if cfg.Spec.TargetRank != ws.site.Rank {
		return fmt.Errorf("core: spec targets rank %d, snapshot paused rank %d",
			cfg.Spec.TargetRank, ws.site.Rank)
	}
	if d, ok := cfg.Spec.Cond.(Deterministic); !ok || d.N < ws.site.N {
		return fmt.Errorf("core: spec condition %v cannot fire after fork site n=%d",
			cfg.Spec.Cond, ws.site.N)
	}
	return nil
}
