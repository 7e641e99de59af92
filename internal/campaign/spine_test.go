package campaign

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/core"
	"chaser/internal/obs"
)

// spineCounts is what a Baseline's spines hold, and the positions reg saw
// skipped.
type spineCounts struct {
	rungs   int
	bytes   int64
	skipped uint64
}

func spineOf(base *Baseline, reg *obs.Registry) spineCounts {
	rungs, bytes := base.SpineSize()
	return spineCounts{rungs, bytes, reg.Counter("campaign_spine_positions_skipped_total").Value()}
}

// walkCounts is what the ladder's two rules say one walk over a task list
// costs on a fresh Baseline of a guest whose every site pauses.
type walkCounts struct {
	spine  int // positions at or below a rank's furthest site: one prefix run each
	own    int // sites a later task shares a stretch with: a rung, so a prefix run, each
	entry  int // runs alone below the first position: no snapshot, from program entry
	misses int // ranks with a task below the first position: its prefix starts at entry
}

func expectedWalk(tasks []task, totals []uint64) walkCounts {
	tasks = append([]task(nil), tasks...)
	sortBySite(tasks)
	var w walkCounts
	for i, tk := range tasks {
		sp := newSpine(totals[tk.rank])
		st := stretchOf(sp, tk.n)
		var before, after *task
		if i > 0 && tasks[i-1].rank == tk.rank {
			before = &tasks[i-1]
		}
		if i+1 < len(tasks) && tasks[i+1].rank == tk.rank {
			after = &tasks[i+1]
		}
		if after == nil {
			w.spine += st
		}
		shared := after != nil && stretchOf(sp, after.n) == st
		resident := before != nil && before.n == tk.n || st > 0 && sp.pos[st-1] == tk.n
		if shared && !resident {
			w.own++
		}
		if st == 0 && before == nil {
			w.misses++
			if !shared {
				w.entry++
			}
		}
	}
	return w
}

// noForkJournal runs cfg's window from scratch on a Baseline of its own and
// returns the journal it wrote: the reference every kept-Baseline journal is
// held to, record for record (a ladder completes its runs in site order).
func noForkJournal(t *testing.T, cfg Config, path string) string {
	t.Helper()
	cfg.NoFork, cfg.Obs, cfg.Journal = true, nil, path
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpineMatchesNoFork is the spine's differential: on one kept Baseline,
// three consecutive shards of a campaign and then two campaigns at once write
// the journals that NoFork runs on fresh Baselines write — for every bundled
// guest, a fixed and a drawn target rank, traced and untraced worlds.
func TestSpineMatchesNoFork(t *testing.T) {
	for _, name := range apps.Names() {
		for _, rank := range []int{0, -1} {
			for _, trace := range []bool{true, false} {
				cfg := appConfig(t, name)
				if rank < 0 && cfg.WorldSize <= 1 {
					continue // one rank to draw: the fixed-rank campaign again
				}
				cfg.TargetRank, cfg.Trace, cfg.Parallel, cfg.KeepRunOutcomes = rank, trace, 1, false
				t.Run(fmt.Sprintf("%s/rank%d/trace=%v", name, rank, trace), func(t *testing.T) {
					reg := obs.NewRegistry()
					cfg.Obs = reg
					base, err := Prepare(cfg)
					if err != nil {
						t.Fatal(err)
					}
					dir := t.TempDir()
					for lo := 0; lo < cfg.Runs; lo += 4 {
						scfg := cfg
						scfg.Shard = &ShardRange{Lo: lo, Hi: lo + 4}
						scfg.Journal = filepath.Join(dir, fmt.Sprintf("kept-%02d.journal", lo))
						if _, err := base.Run(scfg); err != nil {
							t.Fatal(err)
						}
						sameJournalRecords(t, noForkJournal(t, scfg, filepath.Join(dir, fmt.Sprintf("nofork-%02d.journal", lo))), scfg.Journal)
					}
					var wg sync.WaitGroup
					cfgs := make([]Config, 2)
					for i := range cfgs {
						cfgs[i] = cfg
						cfgs[i].Seed = cfg.Seed + int64(i+1)*31
						cfgs[i].Journal = filepath.Join(dir, fmt.Sprintf("kept-seed%d.journal", i))
						wg.Add(1)
						go func(c Config) {
							defer wg.Done()
							if _, err := base.Run(c); err != nil {
								t.Error(err)
							}
						}(cfgs[i])
					}
					wg.Wait()
					if t.Failed() {
						return
					}
					for i, c := range cfgs {
						sameJournalRecords(t, noForkJournal(t, c, filepath.Join(dir, fmt.Sprintf("nofork-seed%d.journal", i))), c.Journal)
					}
					if g := reg.Counter("campaign_golden_runs_total").Value(); g != 1 {
						t.Errorf("campaign_golden_runs_total = %d, want 1", g)
					}
					if rungs, _ := base.SpineSize(); rungs == 0 || rungs > cfg.WorldSize*(spineIntervals-1) {
						t.Errorf("%d spine rungs over %d ranks", rungs, cfg.WorldSize)
					}
				})
			}
		}
	}
}

// TestSpinePerKindOfWorld: a traced world carries samples and flow sequence
// numbers an untraced one does not, so one Baseline serving a traced and then
// an untraced campaign keeps a spine for each — and both campaigns are their
// NoFork twins.
func TestSpinePerKindOfWorld(t *testing.T) {
	cfg := appConfig(t, "matvec")
	cfg.Parallel, cfg.KeepRunOutcomes = 1, false
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, trace := range []bool{true, false} {
		c := cfg
		c.Trace = trace
		c.Journal = filepath.Join(dir, fmt.Sprintf("kept-%v.journal", trace))
		if _, err := base.Run(c); err != nil {
			t.Fatal(err)
		}
		sameJournalRecords(t, noForkJournal(t, c, filepath.Join(dir, fmt.Sprintf("nofork-%v.journal", trace))), c.Journal)
	}
	if len(base.spines) != 2 || base.spines[spineKey{0, true}] == nil || base.spines[spineKey{0, false}] == nil {
		t.Errorf("spines kept: %d, want rank 0's traced and untraced", len(base.spines))
	}
}

// pinnedAt is a campaign on lud whose every run injects at the given share of
// rank 0's golden executions.
func pinnedAt(base *Baseline, cfg Config, num, den uint64) Config {
	cfg.InjectExec = base.totals[0] * num / den
	return cfg
}

// TestSpineIsLazy: a spine reaches as far as the sites asked of it. A campaign
// whose sites all lie in the first stretch builds no rung; one whose furthest
// site is at 40% builds the three positions below it and not a fourth.
func TestSpineIsLazy(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := appConfig(t, "lud")
	cfg.Obs = reg
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Run(pinnedAt(base, cfg, 1, 16)); err != nil {
		t.Fatal(err)
	}
	if s := spineOf(base, reg); s.rungs != 0 || s.bytes != 0 {
		t.Errorf("a campaign below the first position built %+v", s)
	}
	if _, err := base.Run(pinnedAt(base, cfg, 2, 5)); err != nil {
		t.Fatal(err)
	}
	s := spineOf(base, reg)
	if s.rungs != 3 || s.bytes <= 0 || s.skipped != 0 {
		t.Errorf("a campaign at 40%% built %+v, want 3 rungs", s)
	}
	// Coming back below what is built builds nothing more.
	before := countsOf(reg).prefix
	if _, err := base.Run(pinnedAt(base, cfg, 3, 10)); err != nil {
		t.Fatal(err)
	}
	if spineOf(base, reg) != s {
		t.Errorf("a campaign at 30%% changed the spine: %+v, was %+v", spineOf(base, reg), s)
	}
	if p := countsOf(reg).prefix - before; p != 1 {
		t.Errorf("%d prefix runs for a pinned site between two rungs, want its own", p)
	}
}

// stretchOf is the index of the spine stretch a site lies in.
func stretchOf(sp *spine, n uint64) int {
	i := 0
	for i < len(sp.pos) && sp.pos[i] <= n {
		i++
	}
	return i
}

// TestWarmSpineBuildsNothing: on a Baseline whose spine is whole, a shard with
// one site in each of the eight stretches (more sites than that must share
// one) forks every run from a kept rung — or, below the first, runs it from
// program entry — and performs no prefix run at all: no rung is built that
// only one run would fork from. A pinned-site sweep is the other end: every
// run shares the site, so the sweep builds that one rung beyond the spine.
func TestWarmSpineBuildsNothing(t *testing.T) {
	cfg := appConfig(t, "lud")
	cfg.Runs = spineIntervals
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := obs.NewRegistry()
	base.spineRung(core.ForkSite{Rank: 0, N: base.totals[0]}, cfg.Trace, warm, nil)
	if s := spineOf(base, warm); s.rungs != spineIntervals-1 {
		t.Fatalf("warming built %+v", s)
	}
	sp := base.spines[spineKey{0, cfg.Trace}]
	// The task list is a function of the seed: find one that spreads.
	spread := false
	for seed := int64(1); seed < 100_000 && !spread; seed++ {
		cfg.Seed = seed
		tasks, err := planTasks(cfg, base.totals)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, tk := range tasks {
			seen[stretchOf(sp, tk.n)] = true
		}
		spread = len(seen) == spineIntervals
	}
	if !spread {
		t.Fatal("no seed spreads eight sites over the eight stretches")
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	dir := t.TempDir()
	cfg.Journal = filepath.Join(dir, "kept.journal")
	if _, err := base.Run(cfg); err != nil {
		t.Fatal(err)
	}
	c := countsOf(reg)
	if c.prefix != 0 || c.forked != spineIntervals-1 || c.fallbacks != 0 || c.misses != 1 || c.highWater != 0 {
		t.Errorf("seed %d on a warm spine: %+v, want no prefix run, 7 forks from kept rungs and the first stretch's run from entry", cfg.Seed, c)
	}
	sameJournalRecords(t, noForkJournal(t, cfg, filepath.Join(dir, "nofork.journal")), cfg.Journal)

	// The sweep: a site between the third and fourth position.
	sreg := obs.NewRegistry()
	scfg := pinnedAt(base, appConfig(t, "lud"), 2, 5)
	scfg.Obs = sreg
	if _, err := BitSweep(scfg, []int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	sc := countsOf(sreg)
	if sc.prefix != 3+1 || sc.forked != uint64(3*scfg.Runs) || sc.misses != 0 {
		t.Errorf("pinned sweep: %+v, want the 3 spine positions below the site and one prefix run beyond them", sc)
	}
}

// TestSpineSkipsUnpausablePosition: on a Baseline whose instruction budget
// ends between the second and third positions of clamr_mpi's rank-0 spine, the
// world cannot pause at the third or any later one. A position is skipped for
// good — one attempt, however many campaigns follow — and the tasks of its
// stretch fork from the second rung and are their NoFork twins on the same
// Baseline.
func TestSpineSkipsUnpausablePosition(t *testing.T) {
	cfg := appConfig(t, "clamr_mpi")
	cfg.Parallel, cfg.KeepRunOutcomes = 1, false
	reg := obs.NewRegistry()
	cfg.Obs = reg
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := newSpine(base.totals[0])
	// Rank 0's instruction count at a site is its injection record's.
	instrsAt := func(n uint64) uint64 {
		rc := coreConfig(cfg)
		rc.Spec.Cond, rc.Spec.Bits = core.Deterministic{N: n}, 1
		res, err := core.Run(rc)
		if err != nil || len(res.Records) != 1 {
			t.Fatalf("injection at site %d: %v", n, err)
		}
		return res.Records[0].InstrNum
	}
	base.maxInstr = (instrsAt(sp.pos[1]) + instrsAt(sp.pos[2])) / 2
	unpausable := sp.pos[2]
	dir := t.TempDir()
	twin := func(c Config, name string) {
		t.Helper()
		n := c
		n.NoFork, n.Obs, n.Journal = true, nil, filepath.Join(dir, name+"-nofork.journal")
		if _, err := base.Run(n); err != nil {
			t.Fatal(err)
		}
		sameJournalRecords(t, n.Journal, c.Journal)
	}
	for i := 0; i < 2; i++ {
		// Inside the third position's stretch, and two runs on one site:
		// the first tries the site's rung from the second spine rung, which
		// the budget defeats too.
		c := cfg
		c.Runs, c.Seed, c.InjectExec = 4, cfg.Seed+int64(i), unpausable+40
		c.Journal = filepath.Join(dir, fmt.Sprintf("pinned-%d.journal", i))
		if _, err := base.Run(c); err != nil {
			t.Fatal(err)
		}
		twin(c, fmt.Sprintf("pinned-%d", i))
	}
	if s := spineOf(base, reg); s.skipped != 1 || s.rungs != 2 {
		t.Errorf("two campaigns above the unpausable position: %+v, want it skipped once and two rungs", s)
	}
	// A random-site campaign over the whole run decides every position once.
	c := cfg
	c.Runs = 40
	c.Journal = filepath.Join(dir, "random.journal")
	if _, err := base.Run(c); err != nil {
		t.Fatal(err)
	}
	twin(c, "random")
	if s := spineOf(base, reg); s.skipped != uint64(len(sp.pos)-2) || s.rungs != 2 {
		t.Errorf("whole spine: %+v, want 2 rungs and the %d positions past the budget skipped", s, len(sp.pos)-2)
	}
	if sp := base.spines[spineKey{0, true}]; len(sp.rungs) != len(sp.pos) || sp.rungs[1] == nil || sp.rungs[2] != nil {
		t.Errorf("spine decided %d of %d positions, second kept %v, third kept %v", len(sp.rungs), len(sp.pos), sp.rungs[1] != nil, sp.rungs[2] != nil)
	}
}
