package campaign

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"chaser/internal/core"
	"chaser/internal/isa"
	"chaser/internal/obs"
	"chaser/internal/stats"
	"chaser/internal/tainthub"
	"chaser/internal/tcg"
)

// Config parameterizes a fault-injection campaign against one application.
type Config struct {
	// Name identifies the application (used for Spec.Target and reports).
	Name string
	// Prog is the guest program; WorldSize its rank count.
	Prog      *isa.Program
	WorldSize int
	// Ops are the targeted instruction opcodes.
	Ops []isa.Op
	// TargetRank restricts injection to one rank; -1 picks a random rank
	// per run.
	TargetRank int
	// Runs is the number of injection runs (one fault per run).
	Runs int
	// Bits is the number of bits flipped per injection.
	Bits int
	// Seed makes the whole campaign reproducible.
	Seed int64
	// Trace enables propagation tracing on every run (needed for the
	// propagation figures and Table III's propagation subset; adds
	// overhead).
	Trace bool
	// Parallel is the worker count (0 = GOMAXPROCS).
	Parallel int
	// MaxInstructions caps each rank per run (0 = 64x the golden run,
	// bounding fault-induced loops).
	MaxInstructions uint64
	// RunTimeout is the per-run wall-clock watchdog (0 = none): injection
	// runs exceeding it are killed and classified TermTimeout. It
	// complements MaxInstructions — an instruction budget cannot catch a
	// run that stalls without retiring instructions. The golden run is
	// never subject to it (a dead golden run must fail the campaign).
	RunTimeout time.Duration
	// HubPolicy selects how runs treat TaintHub failures after the
	// client's retries are exhausted (default core.HubDegrade).
	HubPolicy core.HubPolicy
	// Journal, when non-empty, writes an append-only checkpoint log of
	// completed run outcomes to this path (see journal.go); a killed
	// campaign can then be resumed.
	Journal string
	// Resume, when non-empty, resumes from the journal at this path:
	// already-completed runs are loaded instead of re-executed and new
	// completions are appended to the same file. Takes precedence over
	// Journal.
	Resume string
	// Stop, when non-nil, interrupts the campaign when closed: no new runs
	// start, in-flight runs finish (and are journaled), and Run returns
	// ErrInterrupted.
	Stop <-chan struct{}
	// Shard, when non-nil, restricts execution to run indices in [Lo, Hi).
	// The task list is still derived for all cfg.Runs runs — every shard of
	// a campaign computes the identical list from the seed and baseline —
	// but only the shard's slice is executed, journaled, and summarized.
	// Shard journals share the full campaign's header, so MergeJournals can
	// validate and merge them back into the uninterrupted summary.
	Shard *ShardRange
	// HubNamespaceBase offsets every run's namespace on the shared Hub, so
	// concurrent campaigns multiplexed onto one hub (the chaserd control
	// plane) cannot collide: run idx uses namespace HubNamespaceBase+idx.
	HubNamespaceBase int
	// KeepRunOutcomes retains each run's classified outcome in the summary.
	KeepRunOutcomes bool
	// Hub, when set, is shared by every run (e.g. a TCP client to a
	// head-node TaintHub); each run gets its own namespace on it, and Run
	// retires the window's namespaces once it has completed them (when Hub
	// is a tainthub.Retirer). Nil runs use private in-process hubs.
	Hub tainthub.Hub
	// NoSharedCache disables the campaign-wide translation base cache,
	// reverting to a private translator per machine per run (the behaviour
	// before the shared cache existed). Outcomes are identical either way —
	// only the translation work differs — so this exists solely for the
	// ablation benchmark.
	NoSharedCache bool
	// NoFastPath disables the vm's taint-free fast interpreter loop in every
	// run. Like NoSharedCache, outcomes are identical either way — this is
	// the ablation switch for the dual-loop benchmark.
	NoFastPath bool
	// InjectExec, when > 0, pins every run's injection point to this dynamic
	// execution count of the targeted ops instead of drawing one per run —
	// the paper's single-site methodology ("after it is executed n times"),
	// where only the flipped bits and seed vary across runs. It is the
	// one-rung case of the checkpoint ladder: the golden prefix up to the
	// site runs once and every run forks from it.
	InjectExec uint64
	// NoFork disables the checkpoint ladder: every run replays the golden
	// prefix from program entry up to its trigger instead of forking from the
	// nearest world snapshot. Outcomes are bitwise identical either way —
	// this is the reference path differential tests and benchmarks compare
	// against, and the only switch the ladder has.
	NoFork bool
	// Obs, when non-nil, receives campaign telemetry and is threaded through
	// every run's layers (vm, mpi, injector). Nil disables it.
	Obs *obs.Registry
	// Events, when non-nil, receives structured lifecycle events from every
	// run's layers (injections, taint births, hub traffic, terminations) plus
	// the campaign's own run_done markers — the golden run's only when the
	// campaign prepares its Baseline. Nil disables them.
	Events *obs.Sink
	// RunObserver, when non-nil, is called from the worker goroutine after
	// each freshly executed run is classified, with the run's task index, the
	// injected rank, the classified outcome, and the full run result (nil
	// when the simulator crashed on that run). Resumed (journaled) runs are
	// not re-observed — their results no longer exist. The Observatory uses
	// this hook to retain provenance graphs and build its heatmap.
	RunObserver func(idx, rank int, out RunOutcome, res *core.RunResult)
	// Tracer, when non-nil, records spans: campaign.golden when the campaign
	// prepares its Baseline, then one campaign.run span per injection run
	// (thread id = worker).
	Tracer *obs.Tracer
	// Progress, when non-nil, is called every ProgressInterval with a live
	// snapshot, and once more on completion.
	Progress func(ProgressInfo)
	// ProgressInterval defaults to one second.
	ProgressInterval time.Duration
}

// Summary aggregates a campaign.
type Summary struct {
	Name     string
	Runs     int
	Injected int

	Benign     int
	SDC        int
	Detected   int
	Terminated int
	// SimCrash counts runs the simulator itself crashed on (isolated
	// panics) — tool failures, not guest outcomes, reported separately so
	// they cannot skew the paper's taxonomy.
	SimCrash int

	TermOS      int
	TermMPI     int
	TermSlave   int
	TermHang    int
	TermTimeout int

	// Propagation subset (tracing campaigns): runs where taint crossed
	// ranks, and what killed the slave when one died.
	PropagatedRuns int
	PropSlaveOS    int
	PropSlaveMPI   int

	// Distributions of tainted memory operations per run (tracing
	// campaigns; Figs. 8 and 9).
	ReadsHist  *stats.Histogram
	WritesHist *stats.Histogram

	// ReadOnlyRuns / WriteOnlyRuns / ReadHeavyRuns mirror the paper's
	// Section IV-C accounting over runs with any taint activity.
	ReadOnlyRuns  int
	WriteOnlyRuns int
	ReadHeavyRuns int

	// PerOp breaks outcomes down by the opcode the fault actually hit —
	// the "relationship between injection points and the propagation of
	// faults" analysis of Section IV-C.
	PerOp map[string]*OpOutcomes

	Outcomes []RunOutcome // populated when Config.KeepRunOutcomes
}

// OpOutcomes tallies outcomes for one injected opcode.
type OpOutcomes struct {
	Benign, SDC, Detected, Terminated int
	Propagated                        int
}

// Baseline is the injection-independent state of a campaign: the shared
// translation base cache (warmed by the golden run), the golden outputs, and
// the quantities derived from the golden run. It is a function of the program,
// world size, targeted ops, instruction budget and the two ablation switches —
// not of the seed, the fault magnitude, the run count or the shard — so the
// process keeps one for every campaign that agrees on those (resident.go):
// every bit count of a sweep, every shard a chaserd worker runs, every
// campaign of cmd/campaign's experiments. What Prepare derived is immutable
// once it returns; what grows afterwards synchronises itself — the base cache,
// and the spines: the checkpoints along the golden run that the campaigns run
// on a Baseline leave behind for the ones after them (spine.go; append-only
// under mu, each rung immutable once appended, gone with the Baseline). So any
// number of campaigns may run on one Baseline at the same time.
type Baseline struct {
	// What the baseline was prepared for; Run refuses a Config that differs.
	prog          *isa.Program
	ops           []isa.Op
	budget        uint64 // Config.MaxInstructions as given, 0 = derive
	noFastPath    bool
	noSharedCache bool

	cache    *tcg.BaseCache
	outputs  [][]byte // the golden run's per-rank output files
	maxInstr uint64
	// totals are the per-rank golden execution counts of the targeted ops;
	// injection points are drawn from them.
	totals []uint64
	world  int

	mu     sync.Mutex
	spines map[spineKey]*spine
}

// Prepare executes the golden run (building and warming the shared base
// cache unless cfg.NoSharedCache) and derives a campaign baseline of the
// caller's own. It caches nothing: it is how the process's resident Baselines
// (resident.go), which Run and BitSweep take theirs from, are built.
func Prepare(cfg Config) (*Baseline, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	base, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	if err := base.checkTarget(cfg.TargetRank); err != nil {
		return nil, err
	}
	return base, nil
}

// validate refuses a Config no baseline can be prepared for.
func validate(cfg Config) error {
	if cfg.Prog == nil || cfg.Runs <= 0 {
		return fmt.Errorf("campaign: need a program and a positive run count")
	}
	if len(cfg.Ops) == 0 {
		return fmt.Errorf("campaign: no target opcodes")
	}
	return nil
}

// prepare is Prepare on a validated Config, for any target rank.
func prepare(cfg Config) (*Baseline, error) {
	world := worldSize(cfg)
	var cache *tcg.BaseCache
	if !cfg.NoSharedCache {
		cache = tcg.NewBaseCache(cfg.Prog)
	}
	cfg.Obs.Counter("campaign_golden_runs_total").Inc()
	gsp := cfg.Tracer.StartSpan("campaign.golden")
	golden, err := core.Run(core.RunConfig{
		Prog:            cfg.Prog,
		WorldSize:       world,
		BaseCache:       cache,
		MaxInstructions: cfg.MaxInstructions,
		NoFastPath:      cfg.NoFastPath,
		Obs:             cfg.Obs,
		Tracer:          cfg.Tracer,
		Events:          cfg.Events,
	})
	gsp.End()
	if err != nil {
		return nil, fmt.Errorf("campaign: golden run: %w", err)
	}
	for r, t := range golden.Terms {
		if t.Abnormal() {
			return nil, fmt.Errorf("campaign: golden run failed on rank %d: %s", r, t)
		}
	}
	maxInstr := cfg.MaxInstructions
	if maxInstr == 0 {
		var peak uint64
		for _, c := range golden.Counters {
			if c.Instructions > peak {
				peak = c.Instructions
			}
		}
		maxInstr = peak * 64
	}
	totals := make([]uint64, world)
	for r := 0; r < world; r++ {
		for _, op := range cfg.Ops {
			totals[r] += golden.Counters[r].PerOp[op]
		}
	}
	return &Baseline{
		prog:          cfg.Prog,
		ops:           slices.Clone(cfg.Ops),
		budget:        cfg.MaxInstructions,
		noFastPath:    cfg.NoFastPath,
		noSharedCache: cfg.NoSharedCache,
		cache:         cache,
		outputs:       golden.Outputs,
		maxInstr:      maxInstr,
		totals:        totals,
		world:         world,
	}, nil
}

func worldSize(cfg Config) int {
	if cfg.WorldSize == 0 {
		return 1
	}
	return cfg.WorldSize
}

// checkTarget refuses a target rank no injection point can be drawn for.
func (b *Baseline) checkTarget(rank int) error {
	if rank < -1 || rank >= b.world {
		return fmt.Errorf("campaign: target rank %d outside [-1, %d)", rank, b.world)
	}
	if rank >= 0 {
		if b.totals[rank] == 0 {
			return fmt.Errorf("campaign: rank %d never executes %v", rank, b.ops)
		}
		return nil
	}
	for _, t := range b.totals {
		if t > 0 {
			return nil
		}
	}
	return fmt.Errorf("campaign: no rank executes %v", b.ops)
}

// check refuses a Config the baseline was not prepared for: its golden run
// and translations describe another program, world, op set, budget or loop.
func (b *Baseline) check(cfg Config) error {
	switch {
	case cfg.Prog != b.prog:
		return fmt.Errorf("campaign: baseline was prepared for another program")
	case worldSize(cfg) != b.world:
		return fmt.Errorf("campaign: baseline was prepared for %d ranks, not %d", b.world, worldSize(cfg))
	case !slices.Equal(cfg.Ops, b.ops):
		return fmt.Errorf("campaign: baseline was prepared for ops %v, not %v", b.ops, cfg.Ops)
	case cfg.MaxInstructions != b.budget:
		return fmt.Errorf("campaign: baseline was prepared for an instruction budget of %d, not %d", b.budget, cfg.MaxInstructions)
	case cfg.NoFastPath != b.noFastPath || cfg.NoSharedCache != b.noSharedCache:
		return fmt.Errorf("campaign: baseline was prepared with NoFastPath=%v NoSharedCache=%v", b.noFastPath, b.noSharedCache)
	case cfg.Runs <= 0:
		return fmt.Errorf("campaign: need a positive run count")
	}
	return b.checkTarget(cfg.TargetRank)
}

// ErrInterrupted is returned by Run when cfg.Stop closed before all runs
// finished. Runs completed up to that point are in the journal (when one
// was configured) and the campaign can be resumed from it.
var ErrInterrupted = errors.New("campaign: interrupted")

// ShardRange restricts a campaign to the run indices in [Lo, Hi).
type ShardRange struct {
	Lo, Hi int
}

// bounds returns the effective [lo, hi) execution window for cfg.
func (cfg Config) bounds() (lo, hi int, err error) {
	if cfg.Shard == nil {
		return 0, cfg.Runs, nil
	}
	s := *cfg.Shard
	if s.Lo < 0 || s.Hi > cfg.Runs || s.Lo >= s.Hi {
		return 0, 0, fmt.Errorf("campaign: shard [%d,%d) out of range for %d runs", s.Lo, s.Hi, cfg.Runs)
	}
	return s.Lo, s.Hi, nil
}

// Run executes the campaign: cfg.Runs injection runs in parallel, each
// flipping cfg.Bits bits at a uniformly random execution of a targeted
// instruction (chosen from the golden run's execution counts, like the
// paper's "after it is executed n times" methodology). The golden run is the
// process's resident Baseline's (resident.go): the first campaign on cfg's
// program, world size, ops, budget and ablation switches executes it, and
// every campaign after it reuses it — its outputs, its counts, the base
// translation cache it warmed (so after warm-up only the blocks an injector
// instruments are ever retranslated) and the spine earlier campaigns left.
// Every run forks from a world snapshot at or below its own injection site
// (see ladder) instead of replaying the golden prefix. Outcomes are bitwise
// those of the same campaign on a fresh Prepare; a campaign that fails drops
// the Baseline it ran on.
func Run(cfg Config) (*Summary, error) {
	e, err := residents.acquire(cfg)
	if err != nil {
		return nil, err
	}
	var sum *Summary
	err = residents.run(e, cfg.Obs, func(base *Baseline) (err error) {
		sum, _, err = runPrepared(cfg, base, nil)
		return err
	})
	return sum, err
}

// Run executes cfg's injection runs against the baseline, which must have
// been prepared for cfg's program, world size, ops, instruction budget and
// ablation switches; everything else — seed, bits, runs, shard, journal, hub,
// telemetry — is cfg's own. The runs fork from the baseline's spine and extend
// it as far as their sites reach.
func (b *Baseline) Run(cfg Config) (*Summary, error) {
	sum, _, err := runPrepared(cfg, b, nil)
	return sum, err
}

// task is one injection run: fault the n-th execution of the targeted ops on
// rank, with the injector seeded by seed. The list is a pure function of
// cfg.Seed and the golden baseline.
type task struct {
	idx  int
	rank int
	n    uint64
	seed int64
}

// planTasks derives the campaign's full task list from its seed and the
// golden execution counts of the targeted ops on each rank.
func planTasks(cfg Config, totals []uint64) ([]task, error) {
	tasks := make([]task, cfg.Runs)
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	for i := range tasks {
		rank := cfg.TargetRank
		if rank < 0 {
			rank = seedRng.Intn(len(totals))
			for totals[rank] == 0 { // skip ranks that never run the ops; checkTarget saw one that does
				rank = seedRng.Intn(len(totals))
			}
		}
		n := cfg.InjectExec
		if n == 0 {
			n = 1 + uint64(seedRng.Int63n(int64(totals[rank])))
		} else if n > totals[rank] {
			return nil, fmt.Errorf("campaign: InjectExec %d exceeds rank %d's %d golden executions of %v",
				n, rank, totals[rank], cfg.Ops)
		}
		tasks[i] = task{
			idx:  i,
			rank: rank,
			n:    n,
			seed: cfg.Seed + int64(i)*7919,
		}
	}
	return tasks, nil
}

// job is one task handed to the worker pool: ws is the rung it forks from
// (nil: none), first its fault's first run at its site (nil: it has no key;
// see repeat.go) and repeat whether that is an earlier task's.
type job struct {
	task
	ws     *core.WorldSnapshot
	first  *firstRun
	repeat bool
}

// runPrepared executes the injection runs of a campaign against a prepared
// baseline. carried is the last rung of an earlier walk over the same task
// list (nil: none) and last the rung this walk ended on: BitSweep hands one
// entry's to the next.
func runPrepared(cfg Config, base *Baseline, carried *core.WorldSnapshot) (sum *Summary, last *core.WorldSnapshot, err error) {
	if err := base.check(cfg); err != nil {
		return nil, nil, err
	}
	world, goldenOut, totals, maxInstr := base.world, base.outputs, base.totals, base.maxInstr
	bits := cfg.Bits
	if bits == 0 {
		bits = 1
	}
	shardLo, shardHi, err := cfg.bounds()
	if err != nil {
		return nil, nil, err
	}
	shardRuns := shardHi - shardLo

	start := time.Now()
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	tasks, err := planTasks(cfg, totals)
	if err != nil {
		return nil, nil, err
	}

	// Checkpoint/resume: every run's task above is a pure function of
	// cfg.Seed and the golden baseline, so skipping journaled runs and
	// re-executing only the missing ones reproduces the uninterrupted
	// campaign exactly.
	var journal *Journal
	resumed := map[int]RunOutcome{}
	switch {
	case cfg.Resume != "":
		var err error
		journal, resumed, err = ResumeJournal(cfg.Resume, cfg)
		if err != nil {
			return nil, nil, err
		}
	case cfg.Journal != "":
		var err error
		journal, err = CreateJournal(cfg.Journal, cfg)
		if err != nil {
			return nil, nil, err
		}
	}
	if journal != nil {
		defer journal.Close()
	}

	var live tally
	reportStop := make(chan struct{})
	var reportWG sync.WaitGroup
	if cfg.Progress != nil {
		interval := cfg.ProgressInterval
		if interval <= 0 {
			interval = time.Second
		}
		reportWG.Add(1)
		go func() {
			defer reportWG.Done()
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-reportStop:
					return
				case <-ticker.C:
					cfg.Progress(live.snapshot(shardRuns, time.Since(start)))
					if cfg.Obs != nil {
						cfg.Obs.Gauge("campaign_runs_per_second").
							Set(live.snapshot(shardRuns, time.Since(start)).RunsPerSec)
					}
				}
			}
		}()
	}

	outcomes := make([]RunOutcome, cfg.Runs)
	errs := make([]error, cfg.Runs)
	for idx, o := range resumed {
		if idx < shardLo || idx >= shardHi {
			// A re-enqueued shard can inherit a journal holding entries from
			// outside its window (another shard appended to the same file, or
			// the window changed); they merge later, but this shard neither
			// re-executes nor summarizes them.
			continue
		}
		outcomes[idx] = o
		live.record(o.Outcome)
		cfg.Obs.Counter("campaign_resumed_runs_total").Inc()
	}

	// runConfig is the supervised run of one task.
	runConfig := func(tk task) core.RunConfig {
		var hub tainthub.Hub
		if cfg.Hub != nil {
			hub = tainthub.WithNamespace(cfg.Hub, cfg.HubNamespaceBase+tk.idx)
		}
		return core.RunConfig{
			Prog:            cfg.Prog,
			WorldSize:       world,
			BaseCache:       base.cache,
			Hub:             hub,
			MaxInstructions: maxInstr,
			Timeout:         cfg.RunTimeout,
			HubPolicy:       cfg.HubPolicy,
			NoFastPath:      cfg.NoFastPath,
			// The campaign itself reads a run's outputs, terminations,
			// counters and cross-rank records (Classify); only an observer
			// is handed the result, access log and all.
			NoAccessLog: cfg.RunObserver == nil,
			Obs:         cfg.Obs,
			Events:      cfg.Events,
			Spec: &core.Spec{
				Target:     cfg.Prog.Name,
				Ops:        cfg.Ops,
				TargetRank: tk.rank,
				Cond:       core.Deterministic{N: tk.n},
				Bits:       bits,
				Seed:       tk.seed,
				Trace:      cfg.Trace,
			},
		}
	}

	// runOne executes and classifies one injection run. A panic anywhere
	// below (the vm, the translator, the taint engine, a hook — including
	// panics captured inside rank goroutines and re-raised by World.Run) is
	// recovered here and isolated as OutcomeSimCrash: one lost data point,
	// not a lost campaign.
	//
	// ws is the rung the ladder found for the task (nil: none below its site,
	// or NoFork): its own site's, or the nearest resident one below, the gap
	// replayed in the run's own world. Both paths are bitwise identical.
	runOne := func(tk task, ws *core.WorldSnapshot) (out RunOutcome, res *core.RunResult, err error) {
		defer func() {
			if r := recover(); r != nil {
				msg := fmt.Sprintf("%v", r)
				if i := strings.IndexByte(msg, '\n'); i >= 0 {
					msg = msg[:i]
				}
				out = RunOutcome{Outcome: OutcomeSimCrash, RootRank: -1, PanicMsg: msg}
				res = nil
				err = nil
				cfg.Obs.Counter("campaign_runs_panic_total").Inc()
			}
		}()
		rc := runConfig(tk)
		if ws == nil {
			res, err = core.Run(rc)
		} else if res, err = core.RunForked(rc, ws); err == nil {
			cfg.Obs.Counter("campaign_forked_runs_total").Inc()
		}
		if err != nil {
			return RunOutcome{}, nil, err
		}
		return Classify(res, goldenOut, tk.rank), res, nil
	}

	// finish records one run's outcome: its slot, the live tally, the
	// run_done event, the observer (res is nil for a repeat, which a campaign
	// with an observer never has) and the journal.
	finish := func(tk task, out RunOutcome, res *core.RunResult) {
		outcomes[tk.idx] = out
		live.record(out.Outcome)
		cfg.Events.Emit("run_done", tk.idx, tk.rank,
			uint64(out.Outcome), uint64(out.Term), out.Outcome.String())
		if cfg.RunObserver != nil {
			cfg.RunObserver(tk.idx, tk.rank, out, res)
		}
		if out.Term == TermTimeout {
			cfg.Obs.Counter("campaign_runs_timeout_total").Inc()
		}
		if journal != nil {
			if jerr := journal.Append(tk.idx, out); jerr != nil {
				errs[tk.idx] = jerr
			}
		}
	}
	// execute runs and records one task, and reports whether the tasks
	// repeating its fault may take its outcome (see repeat.go).
	execute := func(worker int, j job) bool {
		cfg.Obs.Counter("campaign_runs_started_total").Inc()
		rsp := cfg.Tracer.StartSpanTID("campaign.run", worker)
		defer rsp.End()
		out, res, err := runOne(j.task, j.ws)
		if err != nil {
			rsp.SetArg("error", err.Error())
			errs[j.idx] = err
			return false
		}
		finish(j.task, out, res)
		rsp.SetArg("outcome", out.Outcome.String())
		return reusable(res)
	}
	repeated := cfg.Obs.Counter("campaign_runs_repeated_total")
	// settle finishes a repeat whose first run is done: it takes the first
	// run's outcome, or executes when it may not.
	settle := func(worker int, rp job, reuse bool) {
		if !reuse {
			execute(worker, rp)
			return
		}
		repeated.Inc()
		finish(rp.task, outcomes[rp.first.idx], nil)
	}
	var wg sync.WaitGroup
	ch := make(chan job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := range ch {
				if j.repeat {
					if reuse, queued := j.first.join(j); !queued {
						settle(worker, j, reuse)
					}
					continue
				}
				reuse := execute(worker, j)
				if j.first != nil {
					for _, rp := range j.first.finish(reuse) {
						settle(worker, rp, reuse)
					}
				}
			}
		}(w)
	}
	// The window's runs still to execute: not another shard's, and not
	// already journaled (their outcomes were loaded above).
	var pending []task
	for _, tk := range tasks[shardLo:shardHi] {
		if _, ok := resumed[tk.idx]; !ok {
			pending = append(pending, tk)
		}
	}
	var rungs *ladder
	var reps *repeats
	if !cfg.NoFork {
		sortBySite(pending)
		rungs = newLadder(base, cfg.Trace, cfg.Obs, carried)
		if cfg.RunObserver == nil {
			reps = newRepeats(cfg.Prog, bits)
		}
	}
	// The feed stops at Stop or at a failed prefix run. However it ends — a
	// panic in a prefix run too, which goes on to the caller — the pool drains
	// the runs in flight and exits, and so does the progress reporter.
	interrupted := false
	var prefixErr error
	func() {
		defer func() {
			close(ch)
			wg.Wait()
			close(reportStop)
			reportWG.Wait()
		}()
		for i, tk := range pending {
			j := job{task: tk}
			if rungs != nil {
				if j.ws, prefixErr = rungs.rung(tk, pending[i+1:]); prefixErr != nil {
					return
				}
				if reps != nil {
					j.first, j.repeat = reps.of(tk, j.ws)
				}
			}
			// A nil Stop channel never receives, so the select degenerates
			// to a plain send.
			select {
			case <-cfg.Stop:
				interrupted = true
				return
			case ch <- j:
			}
		}
	}()
	if cfg.Progress != nil {
		cfg.Progress(live.snapshot(shardRuns, time.Since(start)))
	}
	live.flushObs(cfg.Obs, time.Since(start))
	if cfg.Obs != nil && base.cache != nil {
		st := base.cache.Stats()
		cfg.Obs.Gauge("campaign_base_cache_blocks").Set(float64(st.Blocks + st.Probed))
	}
	if prefixErr != nil {
		return nil, nil, prefixErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("campaign: run failed: %w", err)
		}
	}
	if interrupted {
		return nil, nil, ErrInterrupted
	}
	retireWindow(cfg, shardLo, shardHi)
	if rungs != nil {
		last = rungs.head
	}
	return summarize(cfg, outcomes[shardLo:shardHi]), last, nil
}

// retireWindow drops the hub entries of a completed window: its namespaces
// were minted here and none of them will be polled again. It is not called
// for an interrupted or failed window — a worker that lost its lease must not
// drop the entries of the attempt that replaced it; the re-execution (or the
// hub's TTL) collects those — nor once Stop has closed, for the same reason.
// A retire that fails, or a hub that cannot retire, costs hub memory until
// that TTL and never a result, so it is counted and the campaign goes on.
func retireWindow(cfg Config, lo, hi int) {
	if cfg.Hub == nil {
		return
	}
	select {
	case <-cfg.Stop:
		return
	default:
	}
	r, ok := cfg.Hub.(tainthub.Retirer)
	if !ok || r.Retire(cfg.HubNamespaceBase+lo, cfg.HubNamespaceBase+hi) != nil {
		cfg.Obs.Counter("campaign_hub_retire_failed_total").Inc()
	}
}

func summarize(cfg Config, outcomes []RunOutcome) *Summary {
	s := &Summary{
		Name:       cfg.Name,
		Runs:       len(outcomes),
		ReadsHist:  stats.NewHistogram(10, 100, 1000, 10_000, 100_000, 1_000_000),
		WritesHist: stats.NewHistogram(10, 100, 1000, 10_000, 100_000, 1_000_000),
		PerOp:      make(map[string]*OpOutcomes),
	}
	for _, o := range outcomes {
		if o.Outcome == OutcomeSimCrash {
			// Tool failures are accounted separately: they are not guest
			// outcomes and must not enter Injected or the per-op breakdown.
			s.SimCrash++
			continue
		}
		if o.Outcome != OutcomeNoInjection {
			s.Injected++
		}
		if op := o.InjectedOp(); op != "" {
			oo := s.PerOp[op]
			if oo == nil {
				oo = &OpOutcomes{}
				s.PerOp[op] = oo
			}
			switch o.Outcome {
			case OutcomeBenign:
				oo.Benign++
			case OutcomeSDC:
				oo.SDC++
			case OutcomeDetected:
				oo.Detected++
			case OutcomeTerminated:
				oo.Terminated++
			}
			if o.Propagated {
				oo.Propagated++
			}
		}
		switch o.Outcome {
		case OutcomeBenign:
			s.Benign++
		case OutcomeSDC:
			s.SDC++
		case OutcomeDetected:
			s.Detected++
		case OutcomeTerminated:
			s.Terminated++
			switch o.Term {
			case TermOS:
				s.TermOS++
			case TermMPI:
				s.TermMPI++
			case TermSlaveNode:
				s.TermSlave++
			case TermHang:
				s.TermHang++
			case TermTimeout:
				s.TermTimeout++
			}
		}
		if o.Propagated {
			s.PropagatedRuns++
			if o.Term == TermSlaveNode {
				if o.SlaveTermOS {
					s.PropSlaveOS++
				}
				if o.SlaveTermMPI {
					s.PropSlaveMPI++
				}
			}
		}
		if cfg.Trace {
			s.ReadsHist.Add(float64(o.TaintedReads))
			s.WritesHist.Add(float64(o.TaintedWrites))
			switch {
			case o.TaintedReads > 0 && o.TaintedWrites == 0:
				s.ReadOnlyRuns++
			case o.TaintedWrites > 0 && o.TaintedReads == 0:
				s.WriteOnlyRuns++
			case o.TaintedReads > o.TaintedWrites:
				s.ReadHeavyRuns++
			}
		}
	}
	if cfg.KeepRunOutcomes {
		s.Outcomes = outcomes
	}
	return s
}
