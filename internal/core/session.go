package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"

	"chaser/internal/isa"
	"chaser/internal/mpi"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
	"chaser/internal/tcg"
	"chaser/internal/trace"
	"chaser/internal/vm"
)

// RunConfig describes one supervised execution: a guest program, a world
// size, and optionally a fault-injection spec (nil runs the golden,
// uninstrumented configuration).
type RunConfig struct {
	Prog      *isa.Program
	WorldSize int
	Spec      *Spec
	// BaseCache, when non-nil, is the shared translation cache every rank of
	// this run draws clean blocks from. Campaigns build one per program and
	// reuse it across all runs; nil gives each machine a private cache.
	BaseCache *tcg.BaseCache
	// Hub overrides the TaintHub (e.g. a TCP client to a shared head-node
	// hub); nil uses a private in-process hub.
	Hub tainthub.Hub
	// MaxInstructions caps each rank (0 = vm default).
	MaxInstructions uint64
	// Timeout is the wall-clock deadline for the whole run (0 = none). When
	// it expires every rank is terminated with vm.ReasonTimeout — the
	// watchdog companion to MaxInstructions, catching hangs that burn real
	// time rather than instructions.
	Timeout time.Duration
	// HubPolicy selects how TaintHub failures are handled (default
	// HubDegrade: continue untainted, counting the degradation).
	HubPolicy HubPolicy
	// SampleInterval for the tainted-bytes timeline (0 = vm default,
	// 100K instructions as in the paper).
	SampleInterval uint64
	// ExecTraceDepth enables per-rank execution-trace ring buffers of this
	// many entries (0 = disabled) for post-mortem analysis of crashes.
	ExecTraceDepth int
	// NoFastPath disables the vm's taint-free fast interpreter loop on every
	// rank — an ablation switch for benchmarks and differential tests only.
	NoFastPath bool
	// NoAccessLog tells a traced run that nobody will read its access log —
	// RunResult.Trace's events, what Provenance, WriteTo and Regions are made
	// of. The run then installs no tainted-access callback and stores no
	// record: taint propagates, the hub is used and the timeline, cross-rank,
	// send and output records are collected as ever, the tainted reads and
	// writes are in Counters (they always are), and Trace says that its log
	// was not kept. False, the default, keeps the log.
	NoAccessLog bool
	// Obs, when non-nil, receives telemetry from every layer of the run
	// (vm, tcg, taint, mpi, injector). Nil disables telemetry.
	Obs *obs.Registry
	// Tracer, when non-nil, records spans for the run and its ranks.
	Tracer *obs.Tracer
	// Events, when non-nil, receives structured run-lifecycle and
	// propagation events from every layer (vm terminations, taint births,
	// injections, hub traffic, world aborts). Nil disables them.
	Events *obs.Sink
}

// RunResult is everything observable from one supervised execution.
type RunResult struct {
	// Terms are the per-rank terminations.
	Terms []vm.Termination
	// Outputs are the per-rank output files (bit-compared for SDC).
	Outputs [][]byte
	// Consoles are the per-rank console texts.
	Consoles []string
	// Counters are the per-rank execution statistics.
	Counters []vm.Counters
	// Records are the injections performed.
	Records []InjectionRecord
	// Trace is the propagation log (empty unless Spec.Trace; without the
	// accesses, and saying so, under RunConfig.NoAccessLog).
	Trace *trace.Collector
	// ExecTraces are the per-rank instruction-trace tails (empty unless
	// RunConfig.ExecTraceDepth was set).
	ExecTraces []string
	// HubStats is this run's own TaintHub traffic, counted by the run (see
	// Chaser.HubStats) — a shared hub's totals are the hub's to report.
	HubStats tainthub.Stats
	// HubErr is the first TaintHub failure the run observed (Chaser.HubErr),
	// nil when its hub interaction never degraded.
	HubErr error
}

// Injected reports whether at least one fault was injected.
func (r *RunResult) Injected() bool { return len(r.Records) > 0 }

// FirstAbnormal returns the lowest rank with an abnormal termination, or -1.
func (r *RunResult) FirstAbnormal() int {
	for i, t := range r.Terms {
		if t.Abnormal() {
			return i
		}
	}
	return -1
}

// Run executes one supervised run: it arms a Chaser (a session's, reset,
// when an earlier run of the same shape left one) with cfg.Spec, creates the
// world (attaching each machine to the Chaser, which arms the injector on
// target ranks), runs all ranks, and gathers results.
func Run(cfg RunConfig) (*RunResult, error) {
	l, err := execute(cfg, nil)
	if err != nil {
		return nil, err
	}
	return l.Own(), nil
}

// Loan is the result of a run that its session lends rather than gives (see
// Lend): the result's slices, records and collector are the session's, read
// in place, and the session waits for them before it serves another run.
type Loan struct {
	res *RunResult
	// s is the session the run's world and result live in. quiet reports
	// that the run's watchdog never fired: only then does Return hand s back,
	// and otherwise nothing reuses what res holds.
	s     *session
	quiet bool
}

// Lend executes one run — Run's when ws is nil, RunForked's from ws
// otherwise, refused as they refuse it — and lends its result. The result is
// valid until Return, which hands it back, and must not be reached after:
// the session's next run writes over all of it. A caller that keeps anything
// of it keeps a copy. Return it exactly once; a Loan that is never returned
// costs its session, not a result.
//
// A run that errors lends nothing, and one whose watchdog fired lends a
// result its session is dropped with. Run and RunForked are Lend, and a copy
// of the result made before it is returned; PrefixRunFrom is Lend of a spec
// that pauses, and a snapshot of the lent world.
func Lend(cfg RunConfig, ws *WorldSnapshot) (Loan, error) {
	return execute(cfg, ws)
}

// Result returns the lent result.
func (l Loan) Result() *RunResult { return l.res }

// Return hands the result back to its session, which may then serve another
// run.
func (l Loan) Return() {
	if l.quiet {
		l.s.release()
	}
}

// Own returns a copy of the lent result that the caller owns — it reaches
// nothing the session keeps — and hands the loan back, as Return does. The
// copy takes the run's collector, so the session's next run makes a new one.
func (l Loan) Own() *RunResult {
	r := l.res
	res := &RunResult{
		Terms:    slices.Clone(r.Terms),
		Outputs:  make([][]byte, len(r.Outputs)),
		Consoles: make([]string, len(r.Consoles)),
		Counters: slices.Clone(r.Counters),
		Records:  append([]InjectionRecord(nil), r.Records...),
		Trace:    r.Trace,
		HubStats: r.HubStats,
		HubErr:   r.HubErr,
	}
	for i, out := range r.Outputs {
		res.Outputs[i] = append(make([]byte, 0, len(out)), out...)
	}
	for i, c := range r.Consoles {
		res.Consoles[i] = strings.Clone(c)
	}
	if r.ExecTraces != nil {
		res.ExecTraces = slices.Clone(r.ExecTraces)
	}
	l.s.ch.collector = nil
	l.Return()
	return res
}

// resume runs the lent world on from its pause, on the same session, to its
// next pause or its end, and refills the result; the loan must not have been
// returned. Each leg has the run's watchdog deadline. A resumed leg's
// receives wait for the hub, since only a whole run can go again
// (session.run). Telemetry stops at the first pause (vm.Machine.Resume).
func (l *Loan) resume() error {
	s := l.s
	cfg := s.build.cfg
	s.world.Resume()
	s.ch.view.early = false
	terms, quiet := s.leg(cfg)
	l.quiet = l.quiet && quiet
	return s.fill(cfg, terms)
}

// worldBuilder makes the machines of a run's world, as mpi.Config's Machine,
// NewMachine and Setup: restored from the run's snapshot (fork-point
// multiplexing) or fresh at the program entry, built on what the arena
// recycled, each attached to the Chaser.
type worldBuilder struct {
	cfg   RunConfig
	snap  *WorldSnapshot
	ch    *Chaser
	arena *vm.Arena
	// hooks is the mpi.Config of b's three methods, bound once.
	hooks mpi.Config
}

// config returns the mpi.Config of the run's world: size ranks, restored
// from snap when it is not nil.
func (b *worldBuilder) config(cfg RunConfig, size int, snap *WorldSnapshot) mpi.Config {
	if b.hooks.Machine == nil {
		b.hooks = mpi.Config{Machine: b.machine, NewMachine: b.newMachine, Setup: b.setup}
	}
	b.cfg, b.snap = cfg, snap
	mcfg := b.hooks
	mcfg.Size, mcfg.Obs, mcfg.Tracer, mcfg.Events = size, cfg.Obs, cfg.Tracer, cfg.Events
	if snap != nil {
		mcfg.State = snap.world
	}
	return mcfg
}

func (b *worldBuilder) machine(rank int) vm.Config {
	return vm.Config{
		MaxInstructions: b.cfg.MaxInstructions,
		SampleInterval:  b.cfg.SampleInterval,
		BaseCache:       b.cfg.BaseCache,
		Obs:             b.cfg.Obs,
		NoFastPath:      b.cfg.NoFastPath,
		Events:          b.cfg.Events,
	}
}

func (b *worldBuilder) newMachine(rank int, mc vm.Config) *vm.Machine {
	if b.snap != nil {
		return b.arena.NewFromSnapshot(b.cfg.Prog, b.snap.machines[rank], mc)
	}
	return b.arena.New(b.cfg.Prog, mc)
}

func (b *worldBuilder) setup(rank int, m *vm.Machine) {
	if b.cfg.ExecTraceDepth > 0 {
		m.EnableExecTrace(b.cfg.ExecTraceDepth)
	}
	b.ch.attach(m)
}

// session is everything execute builds around a run's guest — the machines'
// vm.Arena, the Chaser and the mpi.World shell — and what the run hands its
// caller — the armed spec and the result — kept from one run to the next, so
// that a run resets its world and refills its result rather than allocating
// them. Sessions live in arenas.
//
// The Chaser and the world shell serve runs of one shape: the same base hub
// (two namespaces of one hub are one shape, the Chaser's view pointed at
// each run's), Obs registry, Tracer and world size. The Events sink and
// NoAccessLog are not part of it: the reset Chaser takes both per run, so a
// campaign's log-less, event-less prefix runs share sessions with its runs. A run of another shape builds them afresh, as a run that found
// the pool empty does; the arena, the spec and the result serve any run.
type session struct {
	arena *vm.Arena
	shape sessionShape
	ch    *Chaser
	world *mpi.World
	build worldBuilder
	// spec is the Chaser's armed copy of the run's spec: its defaults filled
	// in, and the resume state of the snapshot a forked run starts from.
	spec Spec
	// res is the result the session lends (Loan), refilled by every run.
	res RunResult
}

// sessionShape is what a session's Chaser and world were built
// for. hub is the base of the run's hub (tainthub.Base).
type sessionShape struct {
	hub    tainthub.Hub
	obs    *obs.Registry
	tracer *obs.Tracer
	size   int
}

// same reports whether two shapes are one. Hubs are compared as values; a
// hub whose dynamic type cannot be compared is no other hub's equal.
func (a sessionShape) same(b sessionShape) (same bool) {
	defer func() {
		if recover() != nil {
			same = false
		}
	}()
	return a == b
}

// arenas holds the sessions of finished runs. Every goroutine that runs
// worlds shares it — a session one campaign worker put back may serve
// another worker's next run — and it hands each session from one goroutine
// to the next, never to two at once. A run takes one and puts it back only
// once nothing can reach what it recycles but the session: the run's lent
// result has been returned (Loan.Return) — and an owned one is a copy, which
// took the run's collector with it (Loan.own) — its hub flights are drained,
// and no watchdog callback is running or left to run. A prefix run returns
// its loan once its world is captured: the snapshot sealed the pages it
// shares, which the arena never keeps, and copied the rest. A run that
// panics, fails or whose watchdog fired drops its session to the garbage
// collector instead.
var arenas = sync.Pool{New: func() any { return &session{arena: new(vm.Arena)} }}

// open readies the session's Chaser for a run of cfg in a world of size
// (plugin_init): reset when the session served a run of that shape last,
// built afresh otherwise. The Chaser is not yet armed and no machine is
// attached.
func (s *session) open(cfg RunConfig, size int) *Chaser {
	shape := sessionShape{hub: tainthub.Base(cfg.Hub), obs: cfg.Obs, tracer: cfg.Tracer, size: size}
	if s.ch != nil && s.shape.same(shape) {
		s.ch.reset(cfg.Hub, cfg.Events, cfg.NoAccessLog)
		return s.ch
	}
	cfg.Obs.Counter("core_sessions_built_total").Inc()
	ch := New(Options{Hub: cfg.Hub, Obs: cfg.Obs, Events: cfg.Events, NoAccessLog: cfg.NoAccessLog})
	s.shape, s.ch, s.world = shape, ch, new(mpi.World)
	s.build.ch, s.build.arena = ch, s.arena
	return ch
}

// newWorld resets the session's world shell into the run's world, restored
// from snap when it is not nil, its machines built on the arena and attached
// to the Chaser.
func (s *session) newWorld(cfg RunConfig, size int, snap *WorldSnapshot) (*mpi.World, error) {
	if err := s.world.Reset(cfg.Prog, s.build.config(cfg, size, snap)); err != nil {
		return nil, err
	}
	return s.world, nil
}

// release recycles the session and puts it back in the pool.
func (s *session) release() {
	s.recycle()
	arenas.Put(s)
}

// recycle hands the arena the machines of the session's finished run. Nothing
// may reach the machines but the arena, and nothing may run, abort or call
// back into the world (see arenas).
func (s *session) recycle() {
	for r := 0; r < s.world.Size(); r++ {
		s.arena.Release(s.world.Machine(r))
	}
	s.build.cfg, s.build.snap = RunConfig{}, nil
}

// armTimeout installs the wall-clock watchdog; the returned stop function is
// safe to call whether or not the deadline fired, and reports whether the
// watchdog's callback never ran and never will (true without a deadline).
// Stop does not wait for a callback already running, so when it reports
// false the world's machines may still be aborted from another goroutine.
// The watchdog fires at most once per world (Interrupt is once-guarded), so a
// run that crashes or completes first wins.
func armTimeout(world *mpi.World, deadline time.Duration) func() bool {
	if deadline <= 0 {
		return func() bool { return true }
	}
	watchdog := time.AfterFunc(deadline, func() {
		world.Interrupt(vm.Termination{
			Reason: vm.ReasonTimeout,
			Msg:    fmt.Sprintf("wall-clock deadline %s exceeded", deadline),
		})
	})
	return watchdog.Stop
}

// execute is every run's path, a prefix run's too: it refuses what cannot
// run (refuse), runs cfg on a pooled session, restored from snap when it is
// not nil, and lends the result.
func execute(cfg RunConfig, snap *WorldSnapshot) (Loan, error) {
	if err := refuse(cfg, snap); err != nil {
		return Loan{}, err
	}
	sp := cfg.Tracer.StartSpan("core.run")
	defer sp.End()
	return arenas.Get().(*session).run(cfg, snap)
}

// run executes one run of cfg on the session, restored from snap when it is
// not nil, and lends its result: this session's — or, for a run rechecked
// after its watchdog fired, that of the fresh session the recheck ran on.
//
// A run whose first attempt took taint from senders it did not wait for and
// whose drain found a hub answer that does not confirm it (worldHub) goes
// again from the same start, its receives waiting and its flights taking the
// first attempt's answers. The first attempt's world is recycled for the
// recheck — unless its watchdog fired: a callback may still abort it.
func (s *session) run(cfg RunConfig, snap *WorldSnapshot) (Loan, error) {
	size := max(cfg.WorldSize, 1)
	terms, quiet, err := s.attempt(cfg, size, snap, nil)
	if err != nil {
		return Loan{}, err
	}
	if answers := s.ch.view.takeAnswers(); answers != nil {
		cfg.Obs.Counter("core_hub_rechecked_runs_total").Inc()
		if quiet {
			s.recycle()
		} else {
			s = arenas.Get().(*session)
		}
		var settled bool
		if terms, settled, err = s.attempt(cfg, size, snap, answers); err != nil {
			return Loan{}, err
		}
		// A watchdog that fired on either attempt keeps the caller's session
		// out of the pool.
		quiet = quiet && settled
	}
	if err := s.fill(cfg, terms); err != nil {
		return Loan{}, err
	}
	return Loan{res: &s.res, s: s, quiet: quiet}, nil
}

// fill refills the session's result from its world, stopped and drained by a
// leg (terms): the drain settled every flight before anyone reads the
// collector, the hub error or, a shard later, the namespace's retirement.
// The result reads the machines' buffers and the Chaser's records in place,
// which nothing writes before the session's next run or the world's next leg.
func (s *session) fill(cfg RunConfig, terms []vm.Termination) error {
	ch := s.ch
	herr := ch.HubErr()
	if herr != nil && cfg.HubPolicy == HubFailRun {
		return fmt.Errorf("core: taint hub failed (HubFailRun policy): %w", herr)
	}
	res := &s.res
	*res = RunResult{
		Terms:    terms,
		Outputs:  res.Outputs[:0],
		Consoles: res.Consoles[:0],
		Counters: res.Counters[:0],
		Records:  ch.records,
		Trace:    ch.collector,
		HubStats: ch.HubStats(),
		HubErr:   herr,
	}
	for r := range terms {
		m := s.world.Machine(r)
		console, output := m.Buffers()
		res.Outputs = append(res.Outputs, output)
		res.Consoles = append(res.Consoles, unsafe.String(unsafe.SliceData(console), len(console)))
		res.Counters = append(res.Counters, m.Counters())
		if cfg.ExecTraceDepth > 0 {
			res.ExecTraces = append(res.ExecTraces, m.FormatExecTrace())
		}
	}
	return nil
}

// attempt runs cfg's world once on the session, restored from snap when it
// is not nil, and drains its flights: a run's first attempt when answers is
// nil, its recheck with the first attempt's answers otherwise. It returns
// the world's terminations and whether its watchdog never fired.
func (s *session) attempt(cfg RunConfig, size int, snap *WorldSnapshot, answers map[flowSeq]*flight) ([]vm.Termination, bool, error) {
	ch := s.open(cfg, size)
	ch.view.begin(answers)
	if cfg.Spec != nil {
		s.spec = *cfg.Spec
		s.spec.setDefaults()
		if snap != nil {
			s.spec.resume = snap.resume
		}
		ch.arm(&s.spec)
		if cfg.Spec.Trace && !cfg.NoAccessLog && answers == nil {
			cfg.Obs.Counter("core_runs_access_log_kept_total").Inc()
		}
	}
	if snap != nil {
		// Seed the propagation timeline with the prefix's samples so the
		// forked run's curve spans the whole execution, as a from-scratch
		// run's would.
		ch.collector.SeedTimeline(snap.samples)
	}
	if _, err := s.newWorld(cfg, size, snap); err != nil {
		return nil, false, err
	}
	terms, quiet := s.leg(cfg)
	return terms, quiet, nil
}

// leg runs the session's world under cfg's watchdog to its next pause or its
// end, drains its flights, and reports whether the watchdog never fired.
func (s *session) leg(cfg RunConfig) ([]vm.Termination, bool) {
	stopWatchdog := armTimeout(s.world, cfg.Timeout)
	wsp := cfg.Tracer.StartSpan("world.run")
	terms := s.world.Run()
	wsp.End()
	quiet := stopWatchdog()
	s.ch.view.drain()
	return terms, quiet
}

// Golden runs the program uninstrumented and returns the result; campaigns
// compare injection runs against it.
func Golden(prog *isa.Program, worldSize int, maxInstr uint64) (*RunResult, error) {
	return Run(RunConfig{Prog: prog, WorldSize: worldSize, MaxInstructions: maxInstr})
}
