package core

import (
	"fmt"
	"math/bits"
	"math/rand"

	"chaser/internal/isa"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
	"chaser/internal/tcg"
	"chaser/internal/trace"
	"chaser/internal/vm"
)

// Spec is a complete fault-injection command (the paper's fi_cmds_st): what
// application to inject into, which instructions, when, and how.
type Spec struct {
	// Target is the guest process name to inject into ("what application").
	Target string
	// Ops are the targeted instruction opcodes ("when to inject" is checked
	// only in front of these).
	Ops []isa.Op
	// TargetRank restricts injection to one MPI rank; -1 targets all ranks.
	TargetRank int
	// Cond decides when to inject (defaults to Deterministic{N: 1}).
	Cond Condition
	// Inj performs the corruption (defaults to OperandInjector{Bits: Bits}).
	Inj Injector
	// Bits is the number of bits the default injector flips.
	Bits int
	// MaxInjections bounds how many faults fire in one run (default 1; the
	// group model typically raises it).
	MaxInjections int
	// Seed makes runs reproducible; each rank derives its RNG from it.
	Seed int64
	// Trace enables fault-propagation tracing (taint tracking, the
	// propagation log, and TaintHub coordination).
	Trace bool

	// resume carries per-rank injector bookkeeping into a run from a world
	// snapshot (fork-point multiplexing); set only by the session.
	resume *resumeState
	// pauses are the target's stops, ascending, counted as ForkSite.N counts:
	// it pauses in front of each before its condition is asked.
	pauses []uint64
}

// Validate reports configuration errors a campaign would otherwise only
// hit at arm time.
func (s *Spec) Validate() error {
	if s.Target == "" {
		return fmt.Errorf("core: spec has no target application")
	}
	if len(s.Ops) == 0 {
		return fmt.Errorf("core: spec targets no instructions")
	}
	for _, op := range s.Ops {
		if !op.Valid() {
			return fmt.Errorf("core: spec targets invalid opcode %d", uint8(op))
		}
	}
	if s.Bits < 0 || s.Bits > 64 {
		return fmt.Errorf("core: bit count %d out of [0,64]", s.Bits)
	}
	if s.MaxInjections < 0 {
		return fmt.Errorf("core: negative MaxInjections")
	}
	if p, ok := s.Cond.(Probabilistic); ok && (p.P < 0 || p.P > 1) {
		return fmt.Errorf("core: probability %v out of [0,1]", p.P)
	}
	return nil
}

// setDefaults fills in the fields a spec leaves to their defaults.
func (s *Spec) setDefaults() {
	if s.Cond == nil {
		s.Cond = Deterministic{N: 1}
	}
	if s.Inj == nil {
		s.Inj = OperandInjector{Bits: s.Bits}
	}
	if s.MaxInjections == 0 {
		s.MaxInjections = 1
	}
}

// Chaser is the fault injector. Arm it with a Spec, then attach the
// machines of a world to it before they run.
//
// A Chaser is owned by one run at a time, and read after it returns: its
// hooks run on the world's one goroutine (internal/mpi runs one rank at a
// time), and its spec, records, hub count and hub error are read by that
// goroutine once the world has run and drained. It takes no lock. The other
// goroutines that can reach a live world leave it alone: the watchdog's
// World.Interrupt touches only the machines' abort pointers; a TaintHub
// flight (tainthub.Client) hands its answer back through worldHub.drain or
// the receive hook, on the world's goroutine; the session pool hands a
// Chaser from one run to the next, and each campaign worker runs on a session
// of its own. Only the obs counters and Sink it writes are shared — with
// /metrics and the Observatory — and they keep their own synchronisation.
type Chaser struct {
	// view is what the MPI hooks reach the TaintHub through.
	view *worldHub
	// preHook and postHook are preSyscall and postSyscall, bound once: attach
	// puts them on every machine.
	preHook, postHook func(*vm.Machine, isa.Sys)

	// hubClient identifies this Chaser to the hub; hubReq mints one request
	// ID per logical Publish/Poll (only the hooks do, on the world's one
	// goroutine). The hub echoes the pair so the pipelined client can check
	// which call a response answers.
	hubClient uint64
	hubReq    uint64

	spec    *Spec
	records []InjectionRecord
	hubErr  error // first hub failure observed by the MPI hooks
	// hubStats is the world's own count of its hub traffic: publishes the hub
	// acknowledged, polls that reached it, polls that found a status.
	hubStats tainthub.Stats

	// pollsLocal counts the receives answered without the hub.
	pollsLocal uint64

	// collector is the run's; reset empties it for the next run unless a
	// result took it (nil).
	collector *trace.Collector
	events    *obs.Sink

	// Injection telemetry (nil without a registry; all uses are nil-safe).
	obsArmed    *obs.Counter
	obsFired    *obs.Counter
	obsBits     *obs.Counter
	obsHubFails *obs.Counter
	// obsTaintLost counts the acknowledged publishes whose poll found nothing.
	obsTaintLost *obs.Counter

	// armed is each rank's injection state, indexed by rank: nil, or idle
	// (no machine), for a rank no machine was attached for or whose machine
	// was attached with no spec armed. It is written only by attach (before
	// guests run); reset idles the states for the next run.
	armed []*armState
}

type armState struct {
	ch        *Chaser
	rank      int
	m         *vm.Machine
	spec      *Spec
	rng       *rand.Rand
	execCount uint64
	injected  int
	detached  bool
	pauses    []uint64 // the spec's pauses not yet reached

	sendSeq flowSeqs
	recvSeq flowSeqs

	// A rank's state serves every run of its Chaser, and keeps what each run
	// would otherwise make anew: sampleHook and injectHook, its sample and
	// faultInjector bound once; stream, the storage of the rng a target rank
	// draws from — empty, or one of rankStream's, reseeded for each run
	// (seedStream); log, the storage of its end of the access log — empty,
	// or one trace.Appender, attached to each run's collector (appender);
	// and ctx, what the injector is handed.
	sampleHook func(instrs uint64, taintedBytes int64)
	injectHook func(m *vm.Machine, op *tcg.Op)
	stream     []rand.Rand
	log        []trace.Appender
	ctx        Context
}

// rankState returns rank's injection state, idle: the one the rank had in an
// earlier run of the Chaser, or a new one.
func (c *Chaser) rankState(rank int) *armState {
	if rank >= len(c.armed) {
		c.armed = append(c.armed, make([]*armState, rank+1-len(c.armed))...)
	}
	st := c.armed[rank]
	if st == nil {
		st = &armState{ch: c, rank: rank}
		st.sampleHook, st.injectHook = st.sample, st.faultInjector
		c.armed[rank] = st
	}
	return st
}

// idle returns the state to the one rankState makes, keeping the storage of
// its flow sequences and its bound hooks. No machine of the run it served
// may call a hook again.
func (st *armState) idle() {
	*st = armState{
		ch: st.ch, rank: st.rank,
		sendSeq: st.sendSeq[:0], recvSeq: st.recvSeq[:0],
		sampleHook: st.sampleHook, injectHook: st.injectHook, stream: st.stream[:0], log: st.log[:0],
	}
}

// appender returns the rank's end of the run's access log: the appender the
// state keeps, attached to the Chaser's collector.
func (st *armState) appender() *trace.Appender {
	if cap(st.log) == 0 {
		st.log = make([]trace.Appender, 1)
	}
	st.log = st.log[:1]
	st.log[0].Attach(st.ch.collector, st.rank)
	return &st.log[0]
}

// seedStream returns the rank's injector stream for a run whose spec seed is
// seed: rankStream's, reseeded in the storage the state keeps.
func (st *armState) seedStream(seed int64) *rand.Rand {
	if cap(st.stream) == 0 {
		st.stream = []rand.Rand{*rankStream(seed, st.rank)}
	} else {
		st.stream = st.stream[:1]
		st.stream[0].Seed(streamSeed(seed, st.rank))
	}
	return &st.stream[0]
}

// sample records one timeline point of the rank's tainted bytes.
func (st *armState) sample(instrs uint64, taintedBytes int64) {
	st.ch.collector.AddSample(trace.TimelinePoint{Rank: st.rank, Instrs: instrs, TaintedBytes: taintedBytes})
}

// flowSeqs numbers the messages of one rank's flows on one side: for every
// flow the rank has sent (or received) on, in the order of first use, the
// message it numbers next. A rank has a few flows, so a scan beats a map, and
// a fork copies the slice.
type flowSeqs []flowSeq

// take returns the sequence number of the next message of flow k, and
// counts it.
func (f *flowSeqs) take(k tainthub.Key) uint64 {
	s := *f
	for i := range s {
		if s[i].key == k {
			s[i].seq++
			return s[i].seq - 1
		}
	}
	*f = append(s, flowSeq{key: k, seq: 1})
	return 0
}

// Options parameterize Chaser construction.
type Options struct {
	// Hub coordinates cross-rank message taint; nil creates a private
	// in-process hub.
	Hub tainthub.Hub
	// Obs, when non-nil, receives injection telemetry (injectors armed,
	// faults fired, bits flipped).
	Obs *obs.Registry
	// Events, when non-nil, receives structured propagation events (faults
	// fired, taint births, hub publishes/polls). Nil disables them.
	Events *obs.Sink
	// NoAccessLog is RunConfig.NoAccessLog.
	NoAccessLog bool
}

// New creates an unarmed Chaser.
func New(opts Options) *Chaser {
	c := &Chaser{
		hubClient:    tainthub.NewClientID(),
		collector:    newCollector(opts.NoAccessLog),
		events:       opts.Events,
		obsArmed:     opts.Obs.Counter("core_injectors_armed_total"),
		obsFired:     opts.Obs.Counter("core_faults_fired_total"),
		obsBits:      opts.Obs.Counter("core_bits_flipped_total"),
		obsHubFails:  opts.Obs.Counter("core_hub_degraded_total"),
		obsTaintLost: opts.Obs.Counter("core_hub_taint_lost_total"),
	}
	c.view = newWorldHub(c, opts.Hub, opts.Obs)
	c.preHook, c.postHook = c.preSyscall, c.postSyscall
	return c
}

// newCollector returns the collector of one run: one that keeps the access
// log, or, under noLog, one that says it was not kept.
func newCollector(noLog bool) *trace.Collector {
	if noLog {
		return trace.NewCollectorNoAccessLog()
	}
	return trace.NewCollector()
}

// reset makes c, whose world has run, been drained and stopped for good, the
// Chaser New builds from Options{Hub: hub, Obs: the registry c was built
// with, Events: events, NoAccessLog: noLog} — hub of the same base as c's
// (see worldHub.reset): unarmed, with no record, hub error or hub count, an
// empty collector that keeps the access log unless noLog, and a hub client
// ID of its own, for the next run of its session. It keeps its rank states,
// idle, its bound syscall hooks, and the storage of its records, flight
// table and collector. Nothing may hold what the finished run left in
// them: a result that outlives the run holds copies, and its own collector,
// which it took from c (Loan.Own).
func (c *Chaser) reset(hub tainthub.Hub, events *obs.Sink, noLog bool) {
	clear(c.records)
	for _, st := range c.armed {
		if st != nil {
			st.idle()
		}
	}
	c.view.reset(hub)
	col := c.collector
	if col == nil {
		col = newCollector(noLog)
	} else {
		col.Reset(noLog)
	}
	*c = Chaser{
		view:         c.view,
		preHook:      c.preHook,
		postHook:     c.postHook,
		hubClient:    tainthub.NewClientID(),
		records:      c.records[:0],
		collector:    col,
		events:       events,
		obsArmed:     c.obsArmed,
		obsFired:     c.obsFired,
		obsBits:      c.obsBits,
		obsHubFails:  c.obsHubFails,
		obsTaintLost: c.obsTaintLost,
		armed:        c.armed,
	}
}

// Arm installs a spec. Machines attached afterwards whose name matches
// spec.Target are instrumented.
func (c *Chaser) Arm(spec *Spec) {
	armed := *spec
	armed.setDefaults()
	c.arm(&armed)
}

// arm installs spec, whose defaults are filled in, as it is: the caller keeps
// it unchanged while machines attached since may use it.
func (c *Chaser) arm(spec *Spec) { c.spec = spec }

// Records returns the injections performed so far.
func (c *Chaser) Records() []InjectionRecord {
	return append([]InjectionRecord(nil), c.records...)
}

// Trace returns the propagation-trace collector.
func (c *Chaser) Trace() *trace.Collector { return c.collector }

// HubStats returns the world's own count of its TaintHub traffic — not the
// hub's, which may serve many worlds: the publishes the hub acknowledged, the
// polls that reached it and those that found a status. Pending is what was
// published and not found by a poll.
func (c *Chaser) HubStats() tainthub.Stats { return c.hubStats }

// countHub adds hub calls the world has learned the outcome of.
func (c *Chaser) countHub(published, polls uint64, hit bool) {
	c.hubStats.Published += published
	c.hubStats.Polls += polls
	if hit {
		c.hubStats.Hits++
	}
	c.hubStats.Pending = int(c.hubStats.Published - c.hubStats.Hits)
}

// HubErr returns the first TaintHub failure observed by the MPI hooks, or
// nil. Under the default HubDegrade policy the failure only degrades
// tracing; under HubFailRun the session turns it into a run error.
func (c *Chaser) HubErr() error { return c.hubErr }

// hubFailure records one degraded hub interaction: the taint of a message
// is dropped, the degradation is counted, and the first error is retained
// for the HubFailRun policy.
func (c *Chaser) hubFailure(op string, err error) {
	c.obsHubFails.Inc()
	c.retainHubErr(fmt.Errorf("%s: %w", op, err))
}

// retainHubErr keeps the first error the HubFailRun policy should fail the
// run with.
func (c *Chaser) retainHubErr(err error) {
	if c.hubErr == nil {
		c.hubErr = err
	}
}

// taintLost records a cross-rank taint the hub dropped: the publish of the
// flow-sequence was acknowledged, and its poll reached the hub and found
// nothing. The receiver runs on untainted, as after any degradation, but the
// loss is counted apart from RPC failures (no call failed) and, like them,
// retained for the HubFailRun policy.
func (c *Chaser) taintLost(k tainthub.Key, seq uint64) {
	c.obsTaintLost.Inc()
	label := tainthub.FlowLabel(k, seq)
	c.events.Emit("hub_taint_lost", -1, k.Dst, seq, 0, label)
	c.retainHubErr(fmt.Errorf("poll: hub lost the published taint of message %s", label))
}

// hubReqID mints the ReqID for one logical hub operation. The MPI hooks
// stamp it once per Publish/Poll; the TCP client re-sends it verbatim on
// every transport retry and verifies the server's echo of it.
func (c *Chaser) hubReqID() tainthub.ReqID {
	c.hubReq++
	return tainthub.ReqID{Client: c.hubClient, Seq: c.hubReq}
}

// attach is fi_creation_cb: called for every machine of a world before it
// runs. It puts the MPI syscall hooks on the machine, and the rank's log
// when the run keeps one, and arms the injector when the machine is the
// designated target.
func (c *Chaser) attach(m *vm.Machine) {
	spec := c.spec
	st := c.rankState(m.Rank)
	m.Hooks.PreSyscall, m.Hooks.PostSyscall = c.preHook, c.postHook
	if c.collector.AccessLogKept() {
		// The rank's own tainted-access callbacks (DECAF_READ_TAINTMEM_CB and
		// DECAF_WRITE_TAINTMEM_CB): the rank's appender, which packs the
		// machine's record, a trace.Event, as is. A run that keeps no log
		// installs none, and its machines count their tainted accesses
		// without describing them.
		log := st.appender()
		m.Hooks.TaintedMemRead, m.Hooks.TaintedMemWrite = log.Add, log.Add
	}
	if spec == nil {
		return
	}
	st.m, st.spec, st.pauses = m, spec, spec.pauses
	if spec.Trace {
		// Tracing must be on for every rank so incoming tainted messages
		// keep propagating (the "incoming errors behave like injected
		// errors and manifest locally again" requirement).
		m.TaintEnabled = true
		c.collector.ShareAmong(m.WorldSize)
		m.Hooks.Sample = st.sampleHook
		if c.events != nil {
			rank := m.Rank
			m.Shadow.OnFirstTaint(func() {
				c.events.Emit("taint_seed", -1, rank, m.PC(), 0, "")
			})
		}
	}
	if rs := spec.resume; rs != nil && m.Rank < len(rs.execCount) {
		// A forked run resumes mid-execution: restore the injector's dynamic
		// counters so the trigger fires at the same global execution count a
		// from-scratch run would see. The RNG needs no restoration — a
		// deterministic condition draws nothing before the trigger, so the
		// fresh stream seeded below is positioned exactly as in a full run.
		// The sequence numbers are copied into the rank's own: concurrent
		// forks share one snapshot.
		st.execCount = rs.execCount[m.Rank]
		st.sendSeq = append(st.sendSeq, rs.sendSeq[m.Rank]...)
		st.recvSeq = append(st.recvSeq, rs.recvSeq[m.Rank]...)
	}

	if m.Name != spec.Target {
		return
	}
	if spec.TargetRank >= 0 && m.Rank != spec.TargetRank {
		return
	}

	// Register the fault_injector helper and instrument only the targeted
	// instructions (just-in-time fault injection, Fig. 3). Only the helper
	// draws from the rank's random stream, so only target ranks hold one.
	if !c.view.rechecking() {
		c.obsArmed.Inc()
	}
	st.rng = st.seedStream(spec.Seed)
	m.Trans.SetProbe(tcg.Probe{Ops: tcg.OpSetOf(spec.Ops...), Helper: m.RegisterHelper(st.injectHook)})
	// Flush the code translation cache to trigger the next round of binary
	// code translation with the injector in place.
	m.Trans.Flush()
}

// faultInjector runs before every targeted instruction: it updates the
// executed counter, pauses the target at its next pause, and otherwise checks
// the injection condition and performs the injection when it is met.
func (st *armState) faultInjector(m *vm.Machine, op *tcg.Op) {
	if st.detached {
		return
	}
	st.execCount++
	if len(st.pauses) > 0 {
		if st.execCount == st.pauses[0] {
			// Not executed: the resumed instruction, or a fork's, counts again.
			st.pauses, st.execCount = st.pauses[1:], st.execCount-1
			st.detachIfDone(m)
			m.PauseAt(op.GuestPC)
			return
		}
		if st.injected >= st.spec.MaxInjections {
			return
		}
	}
	if !st.spec.Cond.ShouldInject(st.execCount, st.rng) {
		return
	}
	ins, ok := m.Prog.InstrAt(op.GuestPC)
	if !ok {
		return
	}
	st.ctx = Context{
		Machine:   m,
		Op:        op,
		Instr:     ins,
		ExecCount: st.execCount,
		Rng:       st.rng,
		Trace:     st.spec.Trace,
	}
	rec, err := st.spec.Inj.Inject(&st.ctx)
	if err != nil {
		// The injection itself failed (e.g. corrupting unmapped memory);
		// record nothing and keep running.
		return
	}
	st.ch.records = append(st.ch.records, rec)
	if st.ch.events != nil {
		st.ch.events.Emit("inject", -1, rec.Rank, rec.PC, rec.Mask, rec.GuestOpS+" "+rec.Target)
	}
	if !st.ch.view.rechecking() {
		st.ch.obsFired.Inc()
		st.ch.obsBits.Add(uint64(bits.OnesCount64(rec.Mask)))
	}
	st.injected++
	st.detachIfDone(m)
}

// detachIfDone is fi_clean_cb, once the injections are spent and no pause is
// left: it stops screening and detaches the injector. The flush drops the
// instrumented translations (Fig. 4), so the rest of the run executes the
// clean shared blocks and never calls the helper again. Only the injector's
// own probe is disarmed: hooks others placed on the machine's translator
// stay.
func (st *armState) detachIfDone(m *vm.Machine) {
	if st.injected < st.spec.MaxInjections || len(st.pauses) > 0 {
		return
	}
	st.detached = true
	m.Trans.SetProbe(tcg.Probe{})
	m.Trans.Flush()
}
