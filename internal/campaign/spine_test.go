package campaign

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/core"
	"chaser/internal/memtest"
	"chaser/internal/obs"
)

// spineCounts is what a Baseline's spines hold.
type spineCounts struct {
	rungs int
	bytes int64
}

func spineOf(base *Baseline) spineCounts {
	rungs, bytes := base.SpineSize()
	return spineCounts{rungs, bytes}
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
		sp := cutsOf(totals[tk.rank])
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
		resident := before != nil && before.n == tk.n || st > 0 && sp[st-1] == tk.n
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
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Run(cfg); err != nil {
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

// onPosition reports whether site is one of the spine's positions.
func onPosition(sp []uint64, site uint64) bool {
	st := stretchOf(sp, site)
	return st > 0 && sp[st-1] == site
}

// TestSpineIsLazy: a spine reaches as far as the sites asked of it. A campaign
// whose sites all lie in the first stretch builds no rung; one whose furthest
// site is at 40% builds the positions below it and not one more.
func TestSpineIsLazy(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := appConfig(t, "lud")
	cfg.Obs = reg
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := base.cuts[0]
	first := pinnedAt(base, cfg, 1, 2*spineIntervals)
	if stretchOf(sp, first.InjectExec) != 0 {
		t.Fatalf("site %d is not in the first stretch (first position %d)", first.InjectExec, sp[0])
	}
	if _, err := base.Run(first); err != nil {
		t.Fatal(err)
	}
	if s := spineOf(base); s.rungs != 0 || s.bytes != 0 {
		t.Errorf("a campaign below the first position built %+v", s)
	}
	at40 := pinnedAt(base, cfg, 2, 5)
	if _, err := base.Run(at40); err != nil {
		t.Fatal(err)
	}
	s := spineOf(base)
	if want := stretchOf(sp, at40.InjectExec); s.rungs != want || s.bytes <= 0 {
		t.Errorf("a campaign at 40%% built %+v, want the %d positions at or below its site", s, want)
	}
	// Coming back below what is built builds nothing more: the pinned site's
	// own rung, unless a position sits on it.
	before := countsOf(reg).prefix
	at30 := pinnedAt(base, cfg, 3, 10)
	if _, err := base.Run(at30); err != nil {
		t.Fatal(err)
	}
	if spineOf(base) != s {
		t.Errorf("a campaign at 30%% changed the spine: %+v, was %+v", spineOf(base), s)
	}
	want := uint64(1)
	if onPosition(sp, at30.InjectExec) {
		want = 0
	}
	if p := countsOf(reg).prefix - before; p != want {
		t.Errorf("%d prefix runs for a pinned site among the rungs, want %d: its own rung, if no position sits on it", p, want)
	}
}

// stretchOf is the index of the spine stretch a site lies in.
func stretchOf(sp []uint64, n uint64) int {
	i := 0
	for i < len(sp) && sp[i] <= n {
		i++
	}
	return i
}

// TestWarmSpineBuildsNothing: on a Baseline whose spine is whole, a shard
// whose sites each lie in a stretch of their own forks every run from a kept
// rung — or, below the first position, runs it from program entry — and
// performs no prefix run at all: no rung is built that only one run would
// fork from. A pinned-site sweep is the other end: every run shares the site,
// so the sweep builds that one rung beyond the spine.
func TestWarmSpineBuildsNothing(t *testing.T) {
	cfg := appConfig(t, "lud")
	cfg.Runs = 8
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := obs.NewRegistry()
	base.spineRung(core.ForkSite{Rank: 0, N: base.totals[0]}, cfg.Trace, nil, warm, nil)
	sp := base.cuts[0]
	if s := spineOf(base); s.rungs != len(sp) {
		t.Fatalf("warming built %+v of %d positions", s, len(sp))
	}
	// The task list is a function of the seed: find one that spreads its
	// sites over as many stretches, one of them the first.
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
		spread = len(seen) == cfg.Runs && seen[0]
	}
	if !spread {
		t.Fatalf("no seed spreads %d sites over as many stretches", cfg.Runs)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	dir := t.TempDir()
	cfg.Journal = filepath.Join(dir, "kept.journal")
	if _, err := base.Run(cfg); err != nil {
		t.Fatal(err)
	}
	c := countsOf(reg)
	if c.prefix != 0 || c.forked != uint64(cfg.Runs-1) || c.misses != 1 || c.highWater != 0 {
		t.Errorf("seed %d on a warm spine: %+v, want no prefix run, %d forks from kept rungs and the first stretch's run from entry", cfg.Seed, c, cfg.Runs-1)
	}
	sameJournalRecords(t, noForkJournal(t, cfg, filepath.Join(dir, "nofork.journal")), cfg.Journal)

	// The sweep, on a Baseline of its own: the positions below its site, and
	// the site's rung unless a position sits on it.
	sreg := obs.NewRegistry()
	scfg := pinnedAt(base, appConfig(t, "lud"), 2, 5)
	scfg.Obs = sreg
	emptyResidents()
	if _, err := BitSweep(scfg, []int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	want := uint64(stretchOf(sp, scfg.InjectExec))
	if !onPosition(sp, scfg.InjectExec) {
		want++
	}
	if sc := countsOf(sreg); sc.prefix != want || sc.forked+sc.repeated != uint64(3*scfg.Runs) || sc.misses != 0 {
		t.Errorf("pinned sweep: %+v, want %d prefix runs: the spine positions below the site and one beyond them", sc, want)
	}
}

// TestSpineSizeIsTheHeapItKeeps: what SpineSize reports — and with it
// campaign_spine_bytes and the ladder's cache charge — is the heap a spine
// keeps alive, not just its pages. A whole traced spine of matvec, bfs and
// clamr_mpi retains, after a collection, within a quarter of what it reports.
func TestSpineSizeIsTheHeapItKeeps(t *testing.T) {
	live := func() int64 { return int64(memtest.Live()) }
	for _, name := range []string{"matvec", "bfs", "clamr_mpi"} {
		cfg := appConfig(t, name)
		base, err := Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		whole := func(trace bool) {
			for r, total := range base.totals {
				if total > 0 && (cfg.TargetRank < 0 || r == cfg.TargetRank) {
					base.spineRung(core.ForkSite{Rank: r, N: total}, trace, nil, nil, nil)
				}
			}
		}
		// The untraced spine first: its prefix runs translate the blocks
		// the pause probe instruments, which the Baseline's cache keeps.
		whole(false)
		rungs0, bytes0 := base.SpineSize()
		before := live()
		whole(true)
		after := live()
		rungs, bytes := base.SpineSize()
		rungs, bytes = rungs-rungs0, bytes-bytes0
		kept := after - before
		t.Logf("%s: a traced spine of %d rungs keeps %d KB of heap and reports %d KB", name, rungs, kept>>10, bytes>>10)
		if rungs == 0 || float64(kept) > 1.25*float64(bytes) || float64(kept) < 0.75*float64(bytes) {
			t.Errorf("%s: %d rungs keep %d bytes of heap, SpineSize reports %d", name, rungs, kept, bytes)
		}
		runtime.KeepAlive(base)
	}
}

// TestSpineRungsMatchTheirEntryTwins: every rung of every bundled app's
// spine — each advanced from the one before, or from a campaign's head — is
// the world a prefix run from program entry to its position captures:
// core.Diff finds nothing between them. Traced and untraced, on the app's
// target rank.
func TestSpineRungsMatchTheirEntryTwins(t *testing.T) {
	for _, name := range apps.Names() {
		for _, trace := range []bool{false, true} {
			cfg := appConfig(t, name)
			base, err := Prepare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rank := cfg.TargetRank
			if _, _, err := base.spineRung(core.ForkSite{Rank: rank, N: math.MaxUint64}, trace, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			rungs, cuts := base.spines[spineKey{rank, trace}], base.cuts[rank]
			if len(rungs) != len(cuts) || len(rungs) == 0 {
				t.Fatalf("%s: %d rungs at %d positions", name, len(rungs), len(cuts))
			}
			for i, rung := range rungs {
				twin, err := base.rungAt(nil, rung.Site(), trace, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := core.Diff(rung, twin); len(d) != 0 {
					t.Errorf("%s trace=%v: rung %d at %d differs from its twin: %+v", name, trace, i, rung.Site().N, d)
				}
			}
		}
	}
}
