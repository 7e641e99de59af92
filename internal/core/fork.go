package core

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"chaser/internal/isa"
	"chaser/internal/mpi"
	"chaser/internal/tainthub"
	"chaser/internal/trace"
	"chaser/internal/vm"
)

// Fork-point run multiplexing: every run of a fault-injection campaign
// executes the golden run up to its injection trigger, then diverges. Instead
// of replaying that prefix per run, PrefixRun executes it once — a run like
// any other, whose only stop is a pause in front of the trigger, the other
// ranks wherever the baton left them — and captures a WorldSnapshot;
// RunForked then resumes any number of injected continuations from it via
// copy-on-write machine snapshots, for any trigger at or after the site. PrefixRunFrom advances an existing snapshot to a
// later site, so a ladder of snapshots over many sites costs one pass over
// the golden run, consecutive rungs sharing every page the guest did not
// write in between (checkpoint-restore as in CHAOS). A forked run is bitwise
// equivalent to a from-scratch run (registers, memory, counters, outputs,
// taint) except for translation-block cache statistics
// (TBsExecuted/ChainedTBs/FastPathTBs), which depend on block boundaries and
// chain-table warmth and appear in no outcome classification.

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
//
// The prefix is Lend of a spec whose only stop is a pause at the site and
// whose condition never fires, and a snapshot of the lent world. No taint
// exists before the trigger, so it calls no hub and logs no access: it runs
// on the base of cfg's hub with no access log, of the session shape of the
// runs that fork from it. Events and tracing belong to real runs only.
func PrefixRunFrom(cfg RunConfig, from *WorldSnapshot, site ForkSite) (*WorldSnapshot, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("core: prefix run has no spec")
	}
	prefix := cfg
	prefix.Spec = &Spec{Target: cfg.Spec.Target, Ops: cfg.Spec.Ops, TargetRank: site.Rank,
		Cond: noTrigger, Trace: cfg.Spec.Trace, pauses: []uint64{site.N}}
	prefix.Hub = tainthub.Base(cfg.Hub)
	prefix.NoAccessLog = true
	prefix.Events, prefix.Tracer, prefix.ExecTraceDepth = nil, nil, 0
	if from != nil && from.site == site {
		if err := refuse(prefix, from); err != nil {
			return nil, err
		}
		return from, nil
	}
	l, err := Lend(prefix, from)
	if err != nil {
		return nil, err
	}
	defer l.Return()
	return l.capture(site)
}

// noTrigger is a prefix run's condition: it fires at no count a run reaches.
var noTrigger = Deterministic{N: math.MaxUint64}

// capture snapshots the lent world, which its target's pause at site stopped.
// The session's next run reuses everything of the world and its Chaser, so
// the snapshot keeps copies.
func (l Loan) capture(site ForkSite) (*WorldSnapshot, error) {
	// A pause stops the world before any rank ends abnormally, and any such
	// end stops the world before the target can pause.
	if t := l.res.Terms[site.Rank]; t.Reason != vm.ReasonPaused {
		return nil, fmt.Errorf("core: fork site (rank %d, n %d) did not pause: target %s", site.Rank, site.N, t)
	}
	s := l.s
	size := s.world.Size()
	ws := &WorldSnapshot{
		prog:      s.build.cfg.Prog,
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
		m := s.world.Machine(r)
		snap, err := m.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", r, err)
		}
		ws.machines[r] = snap
		ws.bytes += snap.Bytes()
		ws.fresh += snap.FreshBytes()

		// The rank's state keeps the storage of its sequence numbers for the
		// session's next run; forks copy the snapshot's. The pause rewound
		// the target's count.
		rst := s.ch.state(m)
		ws.resume.execCount[r] = rst.execCount
		ws.resume.sendSeq[r] = slices.Clone(rst.sendSeq)
		ws.resume.recvSeq[r] = slices.Clone(rst.recvSeq)
	}
	ws.world = s.world.State()
	ws.samples = s.ch.collector.Timeline()
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

// refuse is every run's check (execute): it reports why cfg cannot run from
// ws — from program entry when ws is nil — and nil when it can. A run from a
// snapshot triggers at or after the snapshot's site (see RunForked), and a
// spec's pauses lie on its target rank, at or after where the run starts.
// Over a hub that starts flights they lie before the first count at which
// the condition may fire: a run that took taint early can only be rechecked
// from its start (session.run), which a leg resumed from a pause cannot be.
func refuse(cfg RunConfig, ws *WorldSnapshot) error {
	spec, size := cfg.Spec, max(cfg.WorldSize, 1)
	switch {
	case cfg.Prog == nil:
		return fmt.Errorf("core: no program")
	case ws != nil && cfg.Prog != ws.prog:
		return fmt.Errorf("core: snapshot belongs to a different program")
	case ws != nil && size != ws.worldSize:
		return fmt.Errorf("core: world size %d != snapshot world %d", size, ws.worldSize)
	case spec == nil && ws != nil:
		return fmt.Errorf("core: forked run has no spec")
	case spec == nil:
		return nil
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	d, det := spec.Cond.(Deterministic)
	trigger := uint64(1)
	if det {
		trigger = d.N
	}
	_, flights := cfg.Hub.(tainthub.FlightStarter)
	switch p, n := spec.pauses, len(spec.pauses); {
	case n == 0:
	case spec.TargetRank < 0 || spec.TargetRank >= size:
		return fmt.Errorf("core: fork site rank %d out of world [0,%d)", spec.TargetRank, size)
	case p[0] == 0:
		return fmt.Errorf("core: fork site N must be >= 1")
	case ws != nil && (ws.site.Rank != spec.TargetRank || ws.site.N > p[0]):
		return fmt.Errorf("core: fork site (rank %d, n %d) is not downstream of snapshot (rank %d, n %d)",
			spec.TargetRank, p[0], ws.site.Rank, ws.site.N)
	case flights && p[n-1] >= trigger:
		return fmt.Errorf("core: pause at n=%d is not before the trigger %v, over a hub that starts flights",
			p[n-1], spec.Cond)
	}
	switch {
	case ws == nil:
		return nil
	case spec.TargetRank != ws.site.Rank:
		return fmt.Errorf("core: spec targets rank %d, snapshot paused rank %d", spec.TargetRank, ws.site.Rank)
	case !det || d.N < ws.site.N:
		return fmt.Errorf("core: spec condition %v cannot fire after fork site n=%d", spec.Cond, ws.site.N)
	}
	return nil
}
