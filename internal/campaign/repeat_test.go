package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"chaser/internal/core"
	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/obs"
)

// pinnedConfig is a small pinned-site campaign on a bundled app: rank 0, an
// eighth of the way through its golden executions of the targeted ops (early,
// so that the NoFork twins replay short prefixes).
func pinnedConfig(t *testing.T, name string, runs, bits int, trace bool) Config {
	t.Helper()
	cfg := appConfig(t, name)
	cfg.TargetRank, cfg.Runs, cfg.Bits, cfg.Trace = 0, runs, bits, trace
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.InjectExec = max(base.totals[0]/8, 1)
	return cfg
}

// distinctFaults counts the different injections among a campaign's runs.
func distinctFaults(t *testing.T, outs []RunOutcome) int {
	t.Helper()
	seen := map[string]bool{}
	for _, o := range outs {
		raw, err := json.Marshal(o.Records)
		if err != nil {
			t.Fatal(err)
		}
		seen[string(raw)] = true
	}
	return len(seen)
}

// plannedRepeats is how many of cfg's tasks repeat an earlier task's fault,
// as the default injector's plan says at the pinned site.
func plannedRepeats(t *testing.T, cfg Config) int {
	t.Helper()
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return repeatsAt(t, cfg, base, siteInstr(t, cfg, base))
}

// siteInstr is the instruction cfg's pinned site faults.
func siteInstr(t *testing.T, cfg Config, base *Baseline) isa.Instr {
	t.Helper()
	rc := coreConfig(cfg)
	rc.WorldSize = base.world
	ws, err := core.PrefixRun(rc, core.ForkSite{Rank: cfg.TargetRank, N: cfg.InjectExec})
	if err != nil {
		t.Fatal(err)
	}
	ins, ok := cfg.Prog.InstrAt(ws.PC(cfg.TargetRank))
	if !ok {
		t.Fatalf("no instruction at the site's pc %#x", ws.PC(cfg.TargetRank))
	}
	return ins
}

// repeatsAt is plannedRepeats at a known instruction.
func repeatsAt(t *testing.T, cfg Config, base *Baseline, ins isa.Instr) int {
	t.Helper()
	tasks, err := planTasks(cfg, base.totals)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[core.OperandFault]bool{}
	for _, tk := range tasks {
		seen[core.PlanOperandFault(tk.seed, tk.rank, max(cfg.Bits, 1), ins)] = true
	}
	return len(tasks) - len(seen)
}

// TestRepeatsMatchNoFork is the differential of repeats: pinned-site
// campaigns on lud and on 4-rank matvec, 1 and 2 bits, traced and untraced,
// at one worker (more tasks than the feed queues ahead of it), four, more
// than the feed queues, and two on one P, are run for run their NoFork twins
// (which execute every run), summary JSON and journal records included; a
// repeat is counted for each run whose injection an earlier run already made;
// and at one worker the journal is the twin's byte for byte — a repeat is
// recorded where its run was dispatched.
func TestRepeatsMatchNoFork(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, name := range []string{"lud", "matvec"} {
		for _, bits := range []int{1, 2} {
			for _, trace := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/bits=%d/trace=%v", name, bits, trace), func(t *testing.T) {
					cfg := pinnedConfig(t, name, 120, bits, trace)
					dir := t.TempDir()
					scfg := cfg
					scfg.NoFork, scfg.Parallel = true, 1
					scfg.Journal = filepath.Join(dir, "nofork.journal")
					scratch, err := Run(scfg)
					if err != nil {
						t.Fatal(err)
					}
					want := uint64(cfg.Runs - distinctFaults(t, scratch.Outcomes))
					if bits == 1 && want == 0 {
						t.Fatalf("%d one-bit runs at one site and no fault twice", cfg.Runs)
					}
					if p := plannedRepeats(t, cfg); uint64(p) != want {
						t.Errorf("the plan finds %d repeats, the runs %d", p, want)
					}
					for _, pool := range []struct{ parallel, procs int }{{1, 0}, {4, 0}, {feedDepth + 1, 0}, {2, 1}} {
						parallel := pool.parallel
						reg := obs.NewRegistry()
						c := cfg
						c.Parallel, c.Obs = parallel, reg
						c.Journal = filepath.Join(dir, fmt.Sprintf("p%d-%d.journal", parallel, pool.procs))
						if pool.procs > 0 {
							runtime.GOMAXPROCS(pool.procs)
						}
						sum, err := Run(c)
						runtime.GOMAXPROCS(procs)
						if err != nil {
							t.Fatal(err)
						}
						sameCampaign(t, scratch, sum)
						if parallel == 1 {
							sameFile(t, scfg.Journal, c.Journal)
						} else {
							sameJournalRecords(t, scfg.Journal, c.Journal)
						}
						cnt := countsOf(reg)
						if cnt.repeated != want {
							t.Errorf("parallel %d: %d runs repeated, want %d (runs less distinct faults)", parallel, cnt.repeated, want)
						}
						started := reg.Counter("campaign_runs_started_total").Value()
						if cnt.forked+cnt.repeated+cnt.misses != uint64(cfg.Runs) || started != uint64(cfg.Runs)-cnt.repeated {
							t.Errorf("parallel %d: forked %d + repeated %d + misses %d, started %d, over %d runs",
								parallel, cnt.forked, cnt.repeated, cnt.misses, started, cfg.Runs)
						}
					}
				})
			}
		}
	}
}

// tailProg accumulates eight floating-point adds (the targeted ops) and then
// counts to three million: a run injected early spends tens of milliseconds
// in a tail no fault touches, long enough for any watchdog to fire in it.
// Rank 0 sends the sum to rank 1, so a fault on the sum crosses ranks.
func tailProg(t *testing.T) *isa.Program {
	t.Helper()
	I, V, B := lang.I, lang.V, lang.Block
	prog, err := lang.Compile(&lang.Program{Name: "tail", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.If{
				Cond: lang.Eq(lang.RankExpr{}, I(0)),
				Then: B(
					lang.Let("s", lang.F(0)),
					lang.For{Var: "i", From: I(0), To: I(8), Body: B(
						lang.Set("s", lang.Add(V("s"), lang.F(0.25))),
					)},
					lang.SetAt(V("buf"), I(0), V("s")),
					lang.MPISend{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeFloat64), Dest: I(1), Tag: I(3)},
					lang.Let("n", I(0)),
					lang.For{Var: "j", From: I(0), To: I(3_000_000), Body: B(
						lang.Set("n", lang.Add(V("n"), I(1))),
					)},
					lang.OutInt{E: V("n")},
				),
				Else: B(
					lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeFloat64), Source: I(0), Tag: I(3)},
					lang.OutFloat{E: lang.AtF(V("buf"), I(0))},
				),
			},
		),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRepeatNotTakenFromABadFirstRun: a first run whose outcome is not its
// fault's alone — the watchdog killed it, or the simulator crashed — is not
// reused: every repeat of its fault executes (and ends the same way). The
// campaign's seed is one whose plan repeats a fault, which TestRepeatsMatchNoFork
// shows the campaign then does.
func TestRepeatNotTakenFromABadFirstRun(t *testing.T) {
	cfg := Config{
		Name: "tail", Prog: tailProg(t), WorldSize: 2, Ops: []isa.Op{isa.OpFAdd}, TargetRank: 0,
		Runs: 8, Bits: 1, Trace: true, Parallel: 2, InjectExec: 4, KeepRunOutcomes: true,
	}
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := siteInstr(t, cfg, base)
	for cfg.Seed = 1; repeatsAt(t, cfg, base, ins) == 0; cfg.Seed++ {
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
		bad  func(RunOutcome) bool
	}{
		// The watchdog may fire before the fault too: the run then ends
		// uninjected.
		{"timeout", func(c *Config) { c.RunTimeout = time.Nanosecond },
			func(o RunOutcome) bool { return o.Term == TermTimeout || o.Outcome == OutcomeNoInjection }},
		{"panic", func(c *Config) { c.Hub = panicHub{} },
			func(o RunOutcome) bool { return o.Outcome == OutcomeSimCrash }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c := cfg
			c.Obs = reg
			tc.edit(&c)
			sum, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range sum.Outcomes {
				if !tc.bad(o) {
					t.Errorf("run %d: %+v, want every run to end by the %s", i, o, tc.name)
				}
			}
			if got := reg.Counter("campaign_runs_repeated_total").Value(); got != 0 {
				t.Errorf("%d runs took the outcome of a run the %s ended", got, tc.name)
			}
			if got := reg.Counter("campaign_runs_started_total").Value(); got != uint64(cfg.Runs) {
				t.Errorf("%d runs started, want all %d", got, cfg.Runs)
			}
		})
	}
}

// TestRepeatsObserverSeesEveryRun: a campaign with a RunObserver dedupes
// nothing — its observer is promised every run's result — and still equals
// the campaign that does.
func TestRepeatsObserverSeesEveryRun(t *testing.T) {
	cfg := pinnedConfig(t, "lud", 120, 1, true)
	deduped, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var mu sync.Mutex
	seen := map[int]int{}
	c := cfg
	c.Obs = reg
	c.RunObserver = func(idx, _ int, _ RunOutcome, res *core.RunResult) {
		mu.Lock()
		defer mu.Unlock()
		if res != nil {
			seen[idx]++
		}
	}
	observed, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, deduped, observed)
	for idx := 0; idx < cfg.Runs; idx++ {
		if seen[idx] != 1 {
			t.Errorf("run %d observed %d times", idx, seen[idx])
		}
	}
	if got := reg.Counter("campaign_runs_repeated_total").Value(); got != 0 {
		t.Errorf("an observed campaign repeated %d runs", got)
	}
}

// TestRepeatsInterruptAndResume: a pinned-site campaign full of repeats,
// interrupted mid-flight and resumed from its journal, reproduces the
// uninterrupted summary bitwise — the resumed window plans its repeats over
// the runs still missing.
func TestRepeatsInterruptAndResume(t *testing.T) {
	cfg := pinnedConfig(t, "lud", 300, 1, true)
	cfg.Parallel = 2
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.journal")
	interrupted := false
	for attempt := 0; attempt < 5 && !interrupted; attempt++ {
		stop := make(chan struct{})
		var once sync.Once
		icfg := cfg
		icfg.Journal = path
		icfg.Stop = stop
		icfg.ProgressInterval = time.Millisecond
		icfg.Progress = func(p ProgressInfo) {
			if p.Done >= 20 {
				once.Do(func() { close(stop) })
			}
		}
		sum, err := Run(icfg)
		switch {
		case errors.Is(err, ErrInterrupted):
			interrupted = true
		case err == nil && sum == nil:
			t.Fatal("Run after Stop returned neither a summary nor an error")
		case err == nil:
			// The whole campaign outran the interrupt; try again from an
			// empty journal (a finished one would be resumed).
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatal(err)
		}
	}
	if !interrupted {
		t.Fatal("campaign never interrupted across 5 attempts")
	}
	reg := obs.NewRegistry()
	rcfg := cfg
	rcfg.Journal = path
	rcfg.Obs = reg
	res, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, full, res)
	resumed := reg.Counter("campaign_resumed_runs_total").Value()
	c := countsOf(reg)
	if resumed == 0 || resumed+c.forked+c.repeated != uint64(cfg.Runs) || c.repeated == 0 {
		t.Errorf("resumed %d + forked %d + repeated %d over %d runs", resumed, c.forked, c.repeated, cfg.Runs)
	}

	// Stop closed after the twentieth run, with the queue full: every task
	// is on the site's rung, none waits for the throttle, and the feeder has
	// a core of its own beside the one worker. An observer would turn
	// repeats off, so the progress report closes it.
	t.Run("queued", func(t *testing.T) {
		qcfg := cfg
		qcfg.Parallel = 1
		interruptQueued(t, qcfg, 0, func(c *Config, stop func()) {
			c.ProgressInterval = time.Millisecond
			c.Progress = func(p ProgressInfo) {
				if p.Done >= 20 {
					stop()
				}
			}
		})
	})
}

// TestDropFirstRunWithQueuedRepeat: one worker took a repeat and queued it on
// its first run while the pool ran; the first run's own worker then finds the
// pool halted by Stop and drops it. The repeat is dropped with it, so the walk
// completes, interrupted, instead of waiting for the repeat forever.
func TestDropFirstRunWithQueuedRepeat(t *testing.T) {
	cfg := appConfig(t, "matvec")
	cfg.Runs = 2
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	cfg.Stop = stop
	w, err := newWalk(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	first := &firstRun{idx: w.pending[0].idx}
	p := newPool(cfg, cfg.Runs)
	p.q = make(chan job) // a send returns once the worker holds the job
	w.left.Add(2)
	p.wg.Add(1)
	go p.work(0)
	p.q <- job{task: w.pending[1], w: w, first: first, repeat: true}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		first.mu.Lock()
		queued := len(first.waiting)
		first.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the repeat never queued on its first run")
		}
	}
	close(stop)
	p.q <- job{task: w.pending[0], w: w, first: first}
	close(p.q)
	p.wg.Wait()
	w.leave() // the feed's hold
	if left := w.left.Load(); left != 0 {
		t.Fatalf("%d holds on the walk left after the pool halted: a queued repeat was never dropped", left)
	}
	w.finalize()
	if w.sum != nil || !errors.Is(w.err, ErrInterrupted) {
		t.Fatalf("walk ended with summary %v, error %v; want ErrInterrupted", w.sum != nil, w.err)
	}
}
