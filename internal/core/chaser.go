package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"chaser/internal/decaf"
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

// Chaser is the fault-injection plugin. Load it into a decaf.Platform, arm
// it with a Spec (programmatically via Arm or through the inject_fault
// terminal command), then create the target processes.
type Chaser struct {
	platform *decaf.Platform
	// view is what the MPI hooks reach the TaintHub through.
	view *worldHub

	// hubClient identifies this Chaser to the hub; hubReq mints one request
	// ID per logical Publish/Poll (only the hooks do, on the world's one
	// goroutine). The hub echoes the pair so the pipelined client can check
	// which call a response answers.
	hubClient uint64
	hubReq    uint64

	// mu guards what another goroutine reads of a live run (chaser_status)
	// while the world's goroutine writes it; the Observatory reads a run's
	// result only after the run. The hooks themselves need no lock.
	mu      sync.Mutex
	spec    *Spec
	records []InjectionRecord
	hubErr  error // first hub failure observed by the MPI hooks
	// hubStats is the world's own count of its hub traffic: publishes the hub
	// acknowledged, polls that reached it, polls that found a status.
	hubStats tainthub.Stats

	// pollsLocal counts the receives answered without the hub: every clean
	// receive, so it is counted without mu.
	pollsLocal atomic.Uint64

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
	// (no machine), for a rank no process was created for or whose process
	// was created with no spec armed. It is written
	// only during process creation (before guests run) and read without
	// locking afterwards; reset idles the states for the next run.
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
// earlier run of the Chaser, or a new one. It is called with mu held.
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

var _ decaf.Plugin = (*Chaser)(nil)

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
// (see worldHub.reset) — loaded into the same platform: unarmed, with no
// record, hub error or hub count, an empty collector that keeps the access
// log unless noLog, and a hub client ID of its own, for the next run of its
// session. It keeps its rank states, idle, and the storage of its records,
// flight table and collector. Nothing may hold what the finished run left in
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
		platform:     c.platform,
		view:         c.view,
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

// Init implements decaf.Plugin (plugin_init): it exports the inject_fault
// terminal command and registers the process-creation callback that arms
// target processes — and hands each the tainted-access callback that writes
// its rank's log, when the log is kept — plus the MPI-syscall callbacks used
// for propagation tracing.
func (c *Chaser) Init(p *decaf.Platform) (*decaf.Interface, error) {
	c.platform = p
	p.RegisterProcCreateCB(c.creationCB)
	p.RegisterPreSyscallCB(c.preSyscall)
	p.RegisterPostSyscallCB(c.postSyscall)
	return &decaf.Interface{
		Name: "chaser",
		Commands: []decaf.Command{
			{
				Name:    "inject_fault",
				Usage:   "inject_fault <app> <ops> <prob p|det n|group start:every> <bits> [trace] [rank=K]",
				Handler: c.injectFaultCmd,
			},
			{
				Name:    "chaser_status",
				Usage:   "chaser_status",
				Handler: c.statusCmd,
			},
		},
	}, nil
}

// statusCmd reports the armed spec, performed injections, propagation
// counters, and hub activity.
func (c *Chaser) statusCmd(_ []string) (string, error) {
	c.mu.Lock()
	var spec *Spec
	if c.spec != nil {
		armed := *c.spec
		spec = &armed
	}
	nRec := len(c.records)
	recs := append([]InjectionRecord(nil), c.records...)
	hs := c.hubStats
	c.mu.Unlock()
	local := c.pollsLocal.Load()

	var sb strings.Builder
	if spec == nil {
		sb.WriteString("spec: (not armed)\n")
	} else {
		ops := make([]string, len(spec.Ops))
		for i, op := range spec.Ops {
			ops[i] = op.String()
		}
		fmt.Fprintf(&sb, "spec: target=%s ops=%s cond=%v bits=%d trace=%v rank=%d\n",
			spec.Target, strings.Join(ops, ","), spec.Cond, spec.Bits, spec.Trace, spec.TargetRank)
	}
	fmt.Fprintf(&sb, "injections: %d\n", nRec)
	for _, r := range recs {
		fmt.Fprintf(&sb, "  %s\n", r)
	}
	if c.collector.AccessLogKept() {
		fmt.Fprintf(&sb, "propagation: %d tainted reads, %d tainted writes, %d cross-rank messages\n",
			c.collector.TotalReads(), c.collector.TotalWrites(), len(c.collector.CrossRank()))
	} else {
		fmt.Fprintf(&sb, "propagation: access log not kept, %d cross-rank messages\n", len(c.collector.CrossRank()))
	}
	fmt.Fprintf(&sb, "tainthub: published=%d polls=%d hits=%d pending=%d (clean receives answered without the hub: %d)\n",
		hs.Published, hs.Polls, hs.Hits, hs.Pending, local)
	return sb.String(), nil
}

// Cleanup implements decaf.Plugin.
func (c *Chaser) Cleanup() error { return nil }

// Arm installs a spec. Processes created afterwards whose name matches
// spec.Target are instrumented.
func (c *Chaser) Arm(spec *Spec) {
	armed := *spec
	armed.setDefaults()
	c.arm(&armed)
}

// arm installs spec, whose defaults are filled in, as it is: the caller keeps
// it unchanged while processes created since may use it.
func (c *Chaser) arm(spec *Spec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spec = spec
}

// Spec returns the armed spec, or nil.
func (c *Chaser) Spec() *Spec {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spec
}

// Records returns the injections performed so far.
func (c *Chaser) Records() []InjectionRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]InjectionRecord(nil), c.records...)
}

// Trace returns the propagation-trace collector.
func (c *Chaser) Trace() *trace.Collector { return c.collector }

// HubStats returns the world's own count of its TaintHub traffic — not the
// hub's, which may serve many worlds: the publishes the hub acknowledged, the
// polls that reached it and those that found a status. Pending is what was
// published and not found by a poll.
func (c *Chaser) HubStats() tainthub.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hubStats
}

// countHub adds hub calls the world has learned the outcome of.
func (c *Chaser) countHub(published, polls uint64, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
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
func (c *Chaser) HubErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hubErr
}

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
	c.mu.Lock()
	if c.hubErr == nil {
		c.hubErr = err
	}
	c.mu.Unlock()
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

// creationCB is fi_creation_cb: called for every created process; arms the
// injector when the process is the designated target.
func (c *Chaser) creationCB(info decaf.ProcInfo) {
	c.mu.Lock()
	spec := c.spec
	st := c.rankState(info.Rank)
	c.mu.Unlock()
	m := info.Machine
	if c.collector.AccessLogKept() {
		// The rank's own tainted-access callbacks (DECAF_READ_TAINTMEM_CB and
		// DECAF_WRITE_TAINTMEM_CB): the rank's appender, which packs the
		// machine's record, a trace.Event, as is, and publishes what it holds
		// whenever the machine stops running. A run that keeps no log
		// installs none, and its machines count their tainted accesses
		// without describing them.
		log := st.appender()
		m.Hooks.TaintedMemRead, m.Hooks.TaintedMemWrite, m.Hooks.Stopped = log.Add, log.Add, log.Publish
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
			rank := info.Rank
			m.Shadow.OnFirstTaint(func() {
				c.events.Emit("taint_seed", -1, rank, m.PC(), 0, "")
			})
		}
	}
	if rs := spec.resume; rs != nil && info.Rank < len(rs.execCount) {
		// A forked run resumes mid-execution: restore the injector's dynamic
		// counters so the trigger fires at the same global execution count a
		// from-scratch run would see. The RNG needs no restoration — a
		// deterministic condition draws nothing before the trigger, so the
		// fresh stream seeded below is positioned exactly as in a full run.
		// The sequence numbers are copied into the rank's own: concurrent
		// forks share one snapshot.
		st.execCount = rs.execCount[info.Rank]
		st.sendSeq = append(st.sendSeq, rs.sendSeq[info.Rank]...)
		st.recvSeq = append(st.recvSeq, rs.recvSeq[info.Rank]...)
	}

	if m.Name != spec.Target {
		return
	}
	if spec.TargetRank >= 0 && info.Rank != spec.TargetRank {
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
	st.ch.mu.Lock()
	st.ch.records = append(st.ch.records, rec)
	st.ch.mu.Unlock()
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
// own probe is disarmed: hooks other plugins placed on the machine stay.
func (st *armState) detachIfDone(m *vm.Machine) {
	if st.injected < st.spec.MaxInjections || len(st.pauses) > 0 {
		return
	}
	st.detached = true
	m.Trans.SetProbe(tcg.Probe{})
	m.Trans.Flush()
}

// injectFaultCmd parses the inject_fault terminal command.
func (c *Chaser) injectFaultCmd(args []string) (string, error) {
	if len(args) < 4 {
		return "", fmt.Errorf("usage: inject_fault <app> <ops> <prob p|det n|group s:e> <bits> [trace] [rank=K]")
	}
	spec := &Spec{Target: args[0], TargetRank: -1}
	for _, name := range strings.Split(args[1], ",") {
		op := isa.OpByName(name)
		if op == isa.OpInvalid {
			return "", fmt.Errorf("inject_fault: unknown opcode %q", name)
		}
		spec.Ops = append(spec.Ops, op)
	}
	rest := args[2:]
	switch rest[0] {
	case "prob":
		p, err := strconv.ParseFloat(rest[1], 64)
		if err != nil || p < 0 || p > 1 {
			return "", fmt.Errorf("inject_fault: bad probability %q", rest[1])
		}
		spec.Cond = Probabilistic{P: p}
		rest = rest[2:]
	case "det":
		n, err := strconv.ParseUint(rest[1], 10, 64)
		if err != nil || n == 0 {
			return "", fmt.Errorf("inject_fault: bad execution count %q", rest[1])
		}
		spec.Cond = Deterministic{N: n}
		rest = rest[2:]
	case "group":
		se := strings.SplitN(rest[1], ":", 2)
		if len(se) != 2 {
			return "", fmt.Errorf("inject_fault: group wants start:every")
		}
		start, err1 := strconv.ParseUint(se[0], 10, 64)
		every, err2 := strconv.ParseUint(se[1], 10, 64)
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("inject_fault: bad group %q", rest[1])
		}
		spec.Cond = Group{Start: start, Every: every}
		spec.MaxInjections = 1 << 30
		rest = rest[2:]
	default:
		return "", fmt.Errorf("inject_fault: unknown model %q", rest[0])
	}
	if len(rest) < 1 {
		return "", fmt.Errorf("inject_fault: missing bit count")
	}
	bits, err := strconv.Atoi(rest[0])
	if err != nil || bits < 1 || bits > 64 {
		return "", fmt.Errorf("inject_fault: bad bit count %q", rest[0])
	}
	spec.Bits = bits
	for _, extra := range rest[1:] {
		switch {
		case extra == "trace":
			spec.Trace = true
		case strings.HasPrefix(extra, "rank="):
			r, err := strconv.Atoi(strings.TrimPrefix(extra, "rank="))
			if err != nil {
				return "", fmt.Errorf("inject_fault: bad rank %q", extra)
			}
			spec.TargetRank = r
		default:
			return "", fmt.Errorf("inject_fault: unknown option %q", extra)
		}
	}
	c.Arm(spec)
	return fmt.Sprintf("armed: target=%s ops=%v cond=%v bits=%d trace=%v rank=%d",
		spec.Target, args[1], spec.Cond, spec.Bits, spec.Trace, spec.TargetRank), nil
}
