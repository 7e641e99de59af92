package core

import (
	"fmt"
	"sync"
	"time"

	"chaser/internal/decaf"
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

// Run executes one supervised run: it builds a decaf platform, loads a
// Chaser armed with cfg.Spec, creates the world (firing VMI events that arm
// the injector on target ranks), runs all ranks, and gathers results.
func Run(cfg RunConfig) (*RunResult, error) {
	return execute(cfg, nil)
}

// newSessionWorld builds the MPI world for a run. With a non-nil snapshot
// the machines and the world's state are restored from it (fork-point
// multiplexing); otherwise the machines start fresh at the program entry.
// The machines are built on what arena recycled (nil: on nothing).
func newSessionWorld(cfg RunConfig, size int, platform *decaf.Platform, snap *WorldSnapshot, arena *vm.Arena) (*mpi.World, error) {
	mcfg := mpi.Config{
		Size: size,
		Machine: func(rank int) vm.Config {
			return vm.Config{
				MaxInstructions: cfg.MaxInstructions,
				SampleInterval:  cfg.SampleInterval,
				BaseCache:       cfg.BaseCache,
				Obs:             cfg.Obs,
				NoFastPath:      cfg.NoFastPath,
				Events:          cfg.Events,
			}
		},
		Setup: func(rank int, m *vm.Machine) {
			if cfg.ExecTraceDepth > 0 {
				m.EnableExecTrace(cfg.ExecTraceDepth)
			}
			platform.CreateProcess(m)
		},
		NewMachine: func(rank int, mc vm.Config) *vm.Machine {
			if snap != nil {
				return arena.NewFromSnapshot(cfg.Prog, snap.machines[rank], mc)
			}
			return arena.New(cfg.Prog, mc)
		},
		Obs:    cfg.Obs,
		Tracer: cfg.Tracer,
		Events: cfg.Events,
	}
	if snap != nil {
		mcfg.State = snap.world
	}
	return mpi.NewWorld(cfg.Prog, mcfg)
}

// arenas holds the vm.Arenas of finished runs. A run takes one for the
// machines of its world and puts it back with them only once nothing can
// reach them but the arena: its RunResult is assembled from copies
// (Machine.Output, Console and Counters; the collector, injection records and
// hub stats never point into a machine, and a record's region name is an
// immutable string), its hub flights are drained, and no watchdog callback is
// running or left to run. A run that panics, fails or whose watchdog fired
// drops its arena to the garbage collector instead. PrefixRunFrom uses none:
// its worlds become rungs, whose pages are sealed and shared by every fork.
var arenas = sync.Pool{New: func() any { return new(vm.Arena) }}

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

func execute(cfg RunConfig, snap *WorldSnapshot) (*RunResult, error) {
	if cfg.Prog == nil {
		return nil, fmt.Errorf("core: no program")
	}
	size := cfg.WorldSize
	if size == 0 {
		size = 1
	}
	sp := cfg.Tracer.StartSpan("core.run")
	defer sp.End()
	platform := decaf.NewPlatform()
	ch := New(Options{Hub: cfg.Hub, Obs: cfg.Obs, Events: cfg.Events, NoAccessLog: cfg.NoAccessLog})
	if err := platform.LoadPlugin(ch); err != nil {
		return nil, err
	}
	if cfg.Spec != nil {
		if err := cfg.Spec.Validate(); err != nil {
			return nil, err
		}
		ch.Arm(cfg.Spec)
		if cfg.Spec.Trace && !cfg.NoAccessLog {
			cfg.Obs.Counter("core_runs_access_log_kept_total").Inc()
		}
	}
	if snap != nil {
		// Seed the propagation timeline with the prefix's samples so the
		// forked run's curve spans the whole execution, as a from-scratch
		// run's would.
		for _, p := range snap.samples {
			ch.collector.AddSample(p)
		}
	}
	arena := arenas.Get().(*vm.Arena)
	world, err := newSessionWorld(cfg, size, platform, snap, arena)
	if err != nil {
		return nil, err
	}
	stopWatchdog := armTimeout(world, cfg.Timeout)
	wsp := cfg.Tracer.StartSpan("world.run")
	terms := world.Run()
	wsp.End()
	quiet := stopWatchdog()
	// Flights whose receiver ended before it received them are settled here,
	// before anyone reads the collector, the hub error or, a shard later, the
	// namespace's retirement.
	ch.view.drain()
	herr := ch.HubErr()
	if herr != nil && cfg.HubPolicy == HubFailRun {
		return nil, fmt.Errorf("core: taint hub failed (HubFailRun policy): %w", herr)
	}

	res := &RunResult{
		Terms:    terms,
		Outputs:  make([][]byte, size),
		Consoles: make([]string, size),
		Counters: make([]vm.Counters, size),
		Records:  ch.Records(),
		Trace:    ch.Trace(),
		HubStats: ch.HubStats(),
		HubErr:   herr,
	}
	if cfg.ExecTraceDepth > 0 {
		res.ExecTraces = make([]string, size)
	}
	for r := 0; r < size; r++ {
		m := world.Machine(r)
		res.Outputs[r] = m.Output()
		res.Consoles[r] = m.Console()
		res.Counters[r] = m.Counters()
		if cfg.ExecTraceDepth > 0 {
			res.ExecTraces[r] = m.FormatExecTrace()
		}
	}
	if quiet {
		for r := 0; r < size; r++ {
			arena.Release(world.Machine(r))
		}
		arenas.Put(arena)
	}
	return res, nil
}

// Golden runs the program uninstrumented and returns the result; campaigns
// compare injection runs against it.
func Golden(prog *isa.Program, worldSize int, maxInstr uint64) (*RunResult, error) {
	return Run(RunConfig{Prog: prog, WorldSize: worldSize, MaxInstructions: maxInstr})
}
