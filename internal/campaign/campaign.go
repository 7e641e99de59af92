package campaign

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
	// Journal, when non-empty, is the path of an append-only checkpoint log
	// of completed run outcomes (see journal.go), created if missing. An
	// existing one is resumed: its header must match this campaign, and only
	// the runs it lacks execute, their outcomes appended to it.
	Journal string
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
// and the spines: the rungs pinned at the cuts along the golden run, which
// the campaigns run on a Baseline leave behind for the ones after them
// (ladder.go; append-only under mu, each immutable once pinned, gone with the
// Baseline). So any number of campaigns may run on one Baseline at the same
// time.
type Baseline struct {
	// What the baseline was prepared for; Run refuses a Config of another key.
	key baselineKey
	ops []isa.Op

	cache    *tcg.BaseCache
	outputs  [][]byte // the golden run's per-rank output files
	maxInstr uint64
	// totals are the per-rank golden execution counts of the targeted ops;
	// injection points are drawn from them.
	totals []uint64
	world  int
	// cuts are each rank's spine positions (cutsOf its total).
	cuts [][]uint64

	// spines are the rungs pinned so far, per spine: spines[k][i] is rank
	// k.rank's golden world at cuts[k.rank][i]. pinned and pinnedBytes are
	// what they hold (SpineSize).
	mu                  sync.Mutex
	spines              map[spineKey][]*core.WorldSnapshot
	pinned, pinnedBytes atomic.Int64
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
	world := worldSize(cfg.WorldSize)
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
	cuts := make([][]uint64, world)
	for r := 0; r < world; r++ {
		for _, op := range cfg.Ops {
			totals[r] += golden.Counters[r].PerOp[op]
		}
		cuts[r] = cutsOf(totals[r])
	}
	return &Baseline{
		key:      keyOf(cfg),
		ops:      slices.Clone(cfg.Ops),
		cache:    cache,
		outputs:  golden.Outputs,
		maxInstr: maxInstr,
		totals:   totals,
		world:    world,
		cuts:     cuts,
		spines:   make(map[spineKey][]*core.WorldSnapshot),
	}, nil
}

// worldSize is a rank count as configured: 0 means one rank.
func worldSize(n int) int {
	if n == 0 {
		return 1
	}
	return n
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
	if k := keyOf(cfg); k != b.key {
		return fmt.Errorf("campaign: baseline was prepared for %v, not %v", b.key, k)
	}
	if cfg.Runs <= 0 {
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
		sum, err = base.Run(cfg)
		return err
	})
	return sum, err
}

// Run executes cfg's injection runs against the baseline, which must have
// been prepared for cfg's program, world size, ops, instruction budget and
// ablation switches; everything else — seed, bits, runs, shard, journal, hub,
// telemetry — is cfg's own. The runs fork from the baseline's spine and extend
// it as far as their sites reach, on a pool of their own.
func (b *Baseline) Run(cfg Config) (*Summary, error) {
	walks, err := runWalks(b, []Config{cfg})
	if err != nil {
		return nil, err
	}
	return walks[0].sum, walks[0].err
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

// job is one task queued for the worker pool: w is the walk it belongs to, ws
// the rung it forks from (nil: none) and held the chain rung that is, which
// the job holds while it is queued (nil: a pinned rung or none), first its
// fault's first run at its site (nil: it has no key; see repeat.go) and
// repeat whether that is an earlier task's.
type job struct {
	task
	w      *walk
	ws     *core.WorldSnapshot
	held   *rung
	first  *firstRun
	repeat bool
}

// feedDepth is how many prepared jobs the feeder keeps queued ahead of a
// campaign's workers. Handed over unbuffered, a job made its worker the next
// goroutine on the feeder's P, and a worker's receive made the feeder the next
// on the worker's (runtime/trace: 3,520 of 3,979 wake-ups of a worker by the
// feeder), so feeder and worker took turns on one core: in-process LUD bit
// sweeps (5 × 1,500 runs at one site, two workers, two cores) kept 0.77–0.80
// of both cores busy at depth 0, 0.83–0.87 at 16, 0.90–0.94 at 64 and
// 0.95–0.97 at 256, where lud_site_sweep's runs_per_s read the same as at 64.
// A job is a few words; the rungs queued jobs hold are bounded by the
// throttle (pool.room), not by the depth.
const feedDepth = 64

// walk is one campaign window on a pool: its task list and the state its runs
// record into. The feeder hands its tasks out (pool.feed), workers run them,
// and whichever goroutine lets go of the walk last — the worker finishing its
// last job, or the feeder when no job is left — completes it. A sweep's
// entries are walks over one task list (entry).
type walk struct {
	cfg      Config
	base     *Baseline
	bits     int
	lo, hi   int
	pending  []task // the window's runs still to execute, in plan order
	outcomes []RunOutcome
	errs     []error
	journal  *Journal
	live     tally
	start    time.Time
	// stopReport stops the progress reporter and waits for it.
	stopReport func()

	started, forked, repeated, panics, timeouts *obs.Counter

	// left is the walk's jobs queued or running, plus one while its feed
	// runs; the goroutine that takes it to zero completes the walk.
	left atomic.Int64
	// dropped: a worker dropped one of its jobs after Stop or a failed prefix
	// run, so some task did not run.
	dropped atomic.Bool
	// fed: the feed handed out every task; prefixErr: a prefix run ended it.
	// The feeder writes both before it lets go of left.
	fed       bool
	prefixErr error

	// What complete leaves: the window's summary, or why there is none.
	sum *Summary
	err error
}

// newWalk checks cfg against the baseline, plans its tasks, opens its journal
// — loading the runs a resumed one completed — and starts its progress
// reporter.
func newWalk(cfg Config, base *Baseline) (*walk, error) {
	if err := base.check(cfg); err != nil {
		return nil, err
	}
	lo, hi, err := cfg.bounds()
	if err != nil {
		return nil, err
	}
	tasks, err := planTasks(cfg, base.totals)
	if err != nil {
		return nil, err
	}

	// Checkpoint/resume: every run's task above is a pure function of
	// cfg.Seed and the golden baseline, so skipping journaled runs and
	// re-executing only the missing ones reproduces the uninterrupted
	// campaign exactly.
	var journal *Journal
	resumed := map[int]RunOutcome{}
	if cfg.Journal != "" {
		if _, serr := os.Stat(cfg.Journal); serr == nil {
			journal, resumed, err = ResumeJournal(cfg.Journal, cfg)
		} else {
			journal, err = CreateJournal(cfg.Journal, cfg)
		}
		if err != nil {
			return nil, err
		}
	}

	w := (&walk{base: base, lo: lo, hi: hi}).entry(cfg)
	w.journal = journal
	for idx, o := range resumed {
		if idx < lo || idx >= hi {
			// A re-enqueued shard can inherit a journal holding entries from
			// outside its window (another shard appended to the same file, or
			// the window changed); they merge later, but this shard neither
			// re-executes nor summarizes them.
			continue
		}
		w.outcomes[idx] = o
		w.live.record(o.Outcome)
		cfg.Obs.Counter("campaign_resumed_runs_total").Inc()
	}
	// The window's runs still to execute: not another shard's, and not
	// already journaled (their outcomes were loaded above).
	for _, tk := range tasks[lo:hi] {
		if _, ok := resumed[tk.idx]; !ok {
			w.pending = append(w.pending, tk)
		}
	}
	return w, nil
}

// entry is a new walk for cfg over w's window and task list — a sweep's next
// entry, whose Config differs from w's in Bits, Name and hub namespaces alone
// and journals nothing — with its outcome slots, counters and holds, and its
// progress reporter started.
func (w *walk) entry(cfg Config) *walk {
	e := &walk{cfg: cfg, base: w.base, bits: cfg.Bits, lo: w.lo, hi: w.hi, pending: w.pending, start: time.Now()}
	if e.bits == 0 {
		e.bits = 1
	}
	e.outcomes = make([]RunOutcome, cfg.Runs)
	e.errs = make([]error, cfg.Runs)
	e.started = cfg.Obs.Counter("campaign_runs_started_total")
	e.forked = cfg.Obs.Counter("campaign_forked_runs_total")
	e.repeated = cfg.Obs.Counter("campaign_runs_repeated_total")
	e.panics = cfg.Obs.Counter("campaign_runs_panic_total")
	e.timeouts = cfg.Obs.Counter("campaign_runs_timeout_total")
	e.left.Store(1)
	e.stopReport = func() {}
	if cfg.Progress != nil {
		e.stopReport = tick(cfg.ProgressInterval, func() {
			cfg.Progress(e.live.snapshot(e.hi-e.lo, time.Since(e.start)))
		})
	}
	return e
}

// runConfig is the supervised run of one task.
func (w *walk) runConfig(tk task) core.RunConfig {
	cfg := w.cfg
	var hub tainthub.Hub
	if cfg.Hub != nil {
		hub = tainthub.WithNamespace(cfg.Hub, cfg.HubNamespaceBase+tk.idx)
	}
	return core.RunConfig{
		Prog:            cfg.Prog,
		WorldSize:       w.base.world,
		BaseCache:       w.base.cache,
		Hub:             hub,
		MaxInstructions: w.base.maxInstr,
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
			Bits:       w.bits,
			Seed:       tk.seed,
			Trace:      cfg.Trace,
		},
	}
}

// runOne executes and classifies one injection run. A panic anywhere below
// (the vm, the translator, the taint engine, a hook — including panics
// captured inside rank goroutines and re-raised by World.Run) is recovered
// here and isolated as OutcomeSimCrash: one lost data point, not a lost
// campaign.
//
// ws is the rung the ladder found for the task (nil: none below its site, or
// NoFork): its own site's, or the nearest resident one below, the gap
// replayed in the run's own world. Both paths are bitwise identical.
//
// The result is lent by the run's session (core.Lend): the caller reads it
// to finish the task and then returns the loan, and nothing of it outlives
// the task — the outcome holds copies. A campaign with an observer, which is
// handed the result to keep, gets one it owns, and a zero loan.
func (w *walk) runOne(tk task, ws *core.WorldSnapshot) (out RunOutcome, res *core.RunResult, l core.Loan, err error) {
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("%v", r)
			if i := strings.IndexByte(msg, '\n'); i >= 0 {
				msg = msg[:i]
			}
			// Whatever was lent stays with the session the panic dropped.
			out = RunOutcome{Outcome: OutcomeSimCrash, RootRank: -1, PanicMsg: msg}
			res, l, err = nil, core.Loan{}, nil
			w.panics.Inc()
		}
	}()
	if l, err = core.Lend(w.runConfig(tk), ws); err != nil {
		return RunOutcome{}, nil, core.Loan{}, err
	}
	if ws != nil {
		w.forked.Inc()
	}
	res = l.Result()
	if w.cfg.RunObserver != nil {
		res, l = l.Own(), core.Loan{}
	}
	return Classify(res, w.base.outputs, tk.rank), res, l, nil
}

// finish records one run's outcome: its slot, the live tally, the run_done
// event, the observer (res is nil for a repeat, which a campaign with an
// observer never has) and the journal. Nothing it records keeps res.
func (w *walk) finish(tk task, out RunOutcome, res *core.RunResult) {
	w.outcomes[tk.idx] = out
	w.live.record(out.Outcome)
	w.cfg.Events.Emit("run_done", tk.idx, tk.rank,
		uint64(out.Outcome), uint64(out.Term), out.Outcome.String())
	if w.cfg.RunObserver != nil {
		w.cfg.RunObserver(tk.idx, tk.rank, out, res)
	}
	if out.Term == TermTimeout {
		w.timeouts.Inc()
	}
	if w.journal != nil {
		if jerr := w.journal.Append(tk.idx, out); jerr != nil {
			w.errs[tk.idx] = jerr
		}
	}
}

// execute runs and records one task, and reports whether the tasks repeating
// its fault may take its outcome (see repeat.go).
func (w *walk) execute(worker int, j job) bool {
	w.started.Inc()
	rsp := w.cfg.Tracer.StartSpanTID("campaign.run", worker)
	defer rsp.End()
	out, res, l, err := w.runOne(j.task, j.ws)
	if err != nil {
		rsp.SetArg("error", err.Error())
		w.errs[j.idx] = err
		return false
	}
	w.finish(j.task, out, res)
	rsp.SetArg("outcome", out.Outcome.String())
	reuse := reusable(res)
	l.Return()
	return reuse
}

// leave lets go of one hold on the walk — a job finished or dropped, or the
// feed's own — and completes the walk if it was the last.
func (w *walk) leave() {
	if w.left.Add(-1) == 0 {
		w.complete()
	}
}

// complete ends the walk once nothing of it is queued, running or still to
// be fed: it stops the progress reporter, closes the journal and, if every
// task ran, summarizes the window. What calls back into the caller's code —
// the last progress report, the hub's retire — is finalize's, on the caller's
// goroutine, so a panic there goes on to the caller.
func (w *walk) complete() {
	w.stopReport()
	if w.journal != nil {
		w.journal.Close()
	}
	if w.err = w.failure(); w.err == nil {
		w.sum = summarize(w.cfg, w.outcomes[w.lo:w.hi])
	}
}

// finalize reports a completed walk: the last progress report and the final
// tallies, and a summarized window's hub entries retired.
func (w *walk) finalize() {
	cfg := w.cfg
	if cfg.Progress != nil {
		cfg.Progress(w.live.snapshot(w.hi-w.lo, time.Since(w.start)))
	}
	w.live.flushObs(cfg.Obs)
	if cfg.Obs != nil && w.base.cache != nil {
		st := w.base.cache.Stats()
		cfg.Obs.Gauge("campaign_base_cache_blocks").Set(float64(st.Blocks + st.Probed))
	}
	if w.err == nil {
		retireWindow(cfg, w.lo, w.hi)
	}
}

// failure says why a completed walk has no summary: a failed prefix run, a
// failed run, or a task that never ran (Stop); nil when it has one.
func (w *walk) failure() error {
	if w.prefixErr != nil {
		return w.prefixErr
	}
	for _, err := range w.errs {
		if err != nil {
			return fmt.Errorf("campaign: run failed: %w", err)
		}
	}
	if !w.fed || w.dropped.Load() {
		return ErrInterrupted
	}
	return nil
}

// pool is a campaign's workers and the queue its feeder keeps ahead of them.
// Run feeds one walk through it and BitSweep every entry's at once: each task
// goes out once per entry, back to back, so the entries share every rung.
//
// The feeder is the only goroutine that touches the pool's ladder and repeats
// index. The queue is FIFO, so a repeat reaches a worker after its first run.
// Once Stop closes or a prefix run fails, workers drop what is queued and
// only the runs in flight finish and journal: a worker that lost its lease
// must not write a journal another worker may own by now.
type pool struct {
	q       chan job
	workers int
	stop    <-chan struct{}
	// failed: a prefix run failed, or the feed panicked.
	failed atomic.Bool
	// untaken counts the jobs sent that no worker has taken up yet: the
	// queued ones, and those handed straight to a waiting worker that has not
	// run since. roomy is signalled by a worker whose receive left at most
	// one per worker: the throttle's wake-up (room).
	untaken atomic.Int64
	roomy   chan struct{}
	// rungs is the feed's ladder (nil: NoFork).
	rungs *ladder
	// wait is campaign_worker_wait_seconds: a worker's receives that found
	// the queue empty.
	wait *obs.Histogram
	wg   sync.WaitGroup
}

// newPool makes the pool of cfg's workers for at most jobs jobs: a shard of
// ten runs gets a queue of ten.
func newPool(cfg Config, jobs int) *pool {
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &pool{
		q:       make(chan job, min(jobs, feedDepth)),
		workers: workers,
		stop:    cfg.Stop,
		roomy:   make(chan struct{}, 1),
		wait:    cfg.Obs.Histogram("campaign_worker_wait_seconds", obs.LatencyBuckets...),
	}
}

// drive starts the workers and feeds them the walks on the calling
// goroutine. Once the feed returns — or panics, which goes on to the caller —
// the queue closes and drive waits for the workers to finish or drop what is
// queued, so every walk has completed when it returns.
func (p *pool) drive(walks []*walk) {
	p.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		go p.work(i)
	}
	fed := false
	defer func() {
		if !fed {
			p.failed.Store(true)
		}
		close(p.q)
		p.wg.Wait()
		if p.rungs != nil {
			p.rungs.end()
		}
	}()
	p.feed(walks)
	fed = true
}

// halted reports whether the workers drop what is queued.
func (p *pool) halted() bool {
	if p.failed.Load() {
		return true
	}
	// A nil Stop channel never receives.
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

func (p *pool) work(worker int) {
	defer p.wg.Done()
	for {
		j, ok := p.next()
		if !ok {
			return
		}
		switch w := j.w; {
		case p.halted():
			drop(j)
		case j.repeat:
			if reuse, queued := j.first.join(j); !queued {
				p.settle(worker, j, reuse)
			}
		default:
			reuse := w.execute(worker, j)
			if j.first != nil {
				for _, rp := range j.first.finish(reuse) {
					p.settle(worker, rp, reuse)
				}
			}
			w.leave()
		}
	}
}

// next receives a worker's next job and drops the job's hold on its rung.
// Only a receive that finds the queue empty is timed, so a worker the feeder
// keeps ahead of pays nothing.
func (p *pool) next() (j job, ok bool) {
	select {
	case j, ok = <-p.q:
	default:
		if p.wait == nil {
			j, ok = <-p.q
			break
		}
		t := time.Now()
		j, ok = <-p.q
		p.wait.Observe(time.Since(t).Seconds())
	}
	if !ok {
		return j, false
	}
	j.held.drop()
	if p.untaken.Add(-1) <= int64(p.workers) {
		select {
		case p.roomy <- struct{}{}:
		default:
		}
	}
	return j, true
}

// settle finishes a repeat whose first run is done: it takes the first run's
// outcome, or executes when it may not, or is dropped once the pool halted.
func (p *pool) settle(worker int, rp job, reuse bool) {
	w := rp.w
	switch {
	case p.halted():
		drop(rp)
		return
	case !reuse:
		w.execute(worker, rp)
	default:
		w.repeated.Inc()
		w.finish(rp.task, rp.first.w.outcomes[rp.first.idx], nil)
	}
	w.leave()
}

// drop lets go of a job the halted pool does not run. A first run's repeats
// that another worker queued on it before the pool halted go with it, and a
// repeat that joins it later finds it done and is dropped in settle.
func drop(j job) {
	if j.first != nil && !j.repeat {
		for _, rp := range j.first.finish(false) {
			drop(rp)
		}
	}
	j.w.dropped.Store(true)
	j.w.leave()
}

// room is the throttle the ladder calls before it builds a rung: it waits
// until at most one job per worker is untaken, so untaken jobs hold at most
// that many chain rungs the head has moved past; repeats and tasks on the
// head or a spine rung flow at full depth. False if Stop closed meanwhile.
func (p *pool) room() bool {
	for p.untaken.Load() > int64(p.workers) {
		select {
		case <-p.roomy:
		case <-p.stop:
			return false
		}
	}
	return true
}

// feed queues the walks' one task list for the workers in walk order, each
// task once per walk, back to back, with the rung it forks from and its
// fault's first run. It stops at Stop and at a failed prefix run, which fails
// every walk and halts the pool.
func (p *pool) feed(walks []*walk) {
	defer func() {
		for _, w := range walks {
			w.leave() // the feed's own hold on the walk
		}
	}()
	cfg, pending := walks[0].cfg, walks[0].pending
	var reps *repeats
	if !cfg.NoFork {
		sortBySite(pending)
		p.rungs = newLadder(walks[0].base, cfg.Trace, cfg.Hub, cfg.Obs, p.room)
		if cfg.RunObserver == nil {
			reps = newRepeats(cfg.Prog)
		}
	}
	for i, tk := range pending {
		for k, w := range walks {
			if p.halted() {
				return
			}
			j := job{task: tk, w: w}
			if p.rungs != nil {
				// The next walk's copy of tk follows every copy but the last.
				rest := pending[i+1:]
				if k < len(walks)-1 {
					rest = pending[i:]
				}
				var err error
				if j.ws, j.held, err = p.rungs.rung(tk, rest); err == errStopped {
					return
				} else if err != nil {
					for _, w := range walks {
						w.prefixErr = err
					}
					p.failed.Store(true)
					return
				}
				if reps != nil {
					j.first, j.repeat = reps.of(tk, w, j.ws)
				}
			}
			// Held before the send: a worker may finish the job before the
			// send returns.
			w.left.Add(1)
			p.untaken.Add(1)
			j.held.hold()
			select {
			case <-p.stop:
				w.left.Add(-1)
				p.untaken.Add(-1)
				j.held.drop()
				return
			case p.q <- j:
			}
		}
	}
	for _, w := range walks {
		w.fed = true
	}
}

// runWalks runs one walk per Config on base through one pool — a campaign's
// one, or a sweep's entries, which differ in Bits, Name and hub namespaces
// alone and share the first's task list — and returns them completed and reported: each holds
// its summary or why there is none.
func runWalks(base *Baseline, cfgs []Config) ([]*walk, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	first, err := newWalk(cfgs[0], base)
	if err != nil {
		return nil, err
	}
	walks := []*walk{first}
	for _, c := range cfgs[1:] {
		walks = append(walks, first.entry(c))
	}
	defer runsPerSecond(cfgs[0], first.start, walks)()
	newPool(cfgs[0], len(first.pending)*len(walks)).drive(walks)
	for _, w := range walks {
		w.finalize()
	}
	return walks, nil
}

// runsPerSecond keeps campaign_runs_per_second at the pool's throughput —
// the runs all its walks completed over the time since start — at every
// progress interval while it runs (when the walks report progress) and once
// more when the returned function is called, as runWalks returns.
func runsPerSecond(cfg Config, start time.Time, walks []*walk) (end func()) {
	gauge := cfg.Obs.Gauge("campaign_runs_per_second")
	set := func() {
		var done int64
		for _, w := range walks {
			done += w.live.done.Load()
		}
		if s := time.Since(start).Seconds(); s > 0 {
			gauge.Set(float64(done) / s)
		}
	}
	if gauge == nil || cfg.Progress == nil {
		return set
	}
	stop := tick(cfg.ProgressInterval, set)
	return func() {
		stop()
		set()
	}
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
