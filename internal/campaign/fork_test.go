package campaign

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/core"
	"chaser/internal/obs"
)

// siteFor picks a mid-execution single injection site for cfg's target rank
// from the golden baseline, the configuration where fork-point multiplexing
// pays off most.
func siteFor(t *testing.T, cfg Config) uint64 {
	t.Helper()
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := base.totals[cfg.TargetRank] / 2
	if n == 0 {
		n = 1
	}
	return n
}

// TestCampaignForkMatchesScratch is the campaign-level fork differential: a
// pinned-site campaign run with fork-point multiplexing must produce exactly
// the summary and per-run outcomes of the same campaign with forking
// disabled, while actually forking (the pinned site, half way, is the spine's
// middle position: one prefix run per position up to it, every injection run
// forked from that kept rung, none built beside it).
func TestCampaignForkMatchesScratch(t *testing.T) {
	cfg := kmeansConfig(t)
	cfg.InjectExec = siteFor(t, cfg)

	scfg := cfg
	scfg.NoFork = true
	scratch, err := Run(scfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	fcfg := cfg
	fcfg.Obs = reg
	emptyResidents()
	forked, err := Run(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, scratch, forked)
	if !reflect.DeepEqual(scratch.Outcomes, forked.Outcomes) {
		t.Error("per-run outcomes diverge between forked and scratch campaigns")
	}
	if got := reg.Counter("campaign_prefix_runs_total").Value(); got != spineIntervals/2 {
		t.Errorf("campaign_prefix_runs_total = %d, want %d (the spine up to the pinned site)", got, spineIntervals/2)
	}
	fr := reg.Counter("campaign_forked_runs_total").Value()
	rep := reg.Counter("campaign_runs_repeated_total").Value()
	misses := reg.Counter("campaign_snapshot_cache_misses_total").Value()
	if fr+rep+misses != uint64(cfg.Runs) {
		t.Errorf("forked (%d) + repeated (%d) + misses (%d) != runs (%d)", fr, rep, misses, cfg.Runs)
	}
	if fr == 0 {
		t.Error("no runs actually forked")
	}
	if hw := reg.Gauge("campaign_snapshot_cache_bytes_high_water").Value(); hw != 0 {
		t.Errorf("snapshot cache high water = %v, want 0: the rung is the spine's", hw)
	}
}

// TestCampaignForkMatchesScratchMPI runs the fork differential over a real
// MPI world (matvec, 4 ranks): pausing the world at the fork site freezes
// rank machines mid-conversation and the in-flight message queues with them.
func TestCampaignForkMatchesScratchMPI(t *testing.T) {
	app, err := apps.ByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
		Ops: app.DefaultOps, TargetRank: 0,
		Runs: 10, Bits: 1, Seed: 424, Trace: true, Parallel: 4,
		KeepRunOutcomes: true,
	}
	cfg.InjectExec = siteFor(t, cfg)

	scfg := cfg
	scfg.NoFork = true
	scratch, err := Run(scfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fcfg := cfg
	fcfg.Obs = reg
	forked, err := Run(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, scratch, forked)
	if !reflect.DeepEqual(scratch.Outcomes, forked.Outcomes) {
		t.Error("per-run outcomes diverge between forked and scratch MPI campaigns")
	}
	fr := reg.Counter("campaign_forked_runs_total").Value()
	misses := reg.Counter("campaign_snapshot_cache_misses_total").Value()
	if fr+misses != uint64(cfg.Runs) {
		t.Errorf("forked (%d) + misses (%d) != runs (%d)", fr, misses, cfg.Runs)
	}
	if fr == 0 {
		t.Error("no MPI runs actually forked")
	}
}

// TestCampaignForkConcurrent forks a worker pool's runs from one pinned site
// concurrently: one prefix run per spine position up to the site (its middle
// one) and no more, and the summary still matches scratch.
func TestCampaignForkConcurrent(t *testing.T) {
	cfg := kmeansConfig(t)
	cfg.InjectExec = siteFor(t, cfg)
	cfg.Runs = 12
	cfg.Parallel = 8

	scfg := cfg
	scfg.NoFork = true
	scratch, err := Run(scfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fcfg := cfg
	fcfg.Obs = reg
	emptyResidents()
	forked, err := Run(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, scratch, forked)
	if got := reg.Counter("campaign_prefix_runs_total").Value(); got != spineIntervals/2 {
		t.Errorf("campaign_prefix_runs_total = %d, want %d (singleflight)", got, spineIntervals/2)
	}
}

// TestBitSweepForkShared: sweep entries share one baseline and with it the
// spine, and one walk and with it the ladder: each task goes out to every
// entry in turn, so a site the entries share is one rung for the whole
// sweep, pinned or random. Either way the results must be identical to a
// no-fork sweep's — entries share one pool, and each is summarized when its
// last run finishes, whatever is queued behind it: with more workers than the
// feed queues jobs ahead of them, more tasks than it queues on one worker,
// and every goroutine on one P.
func TestBitSweepForkShared(t *testing.T) {
	bitCounts := []int{1, 2, 4}
	for _, shape := range []struct {
		name                  string
		runs, parallel, procs int
	}{
		{name: "small", runs: 6},
		{name: "wide-pool", runs: 6, parallel: feedDepth + 1},
		{name: "deep-queue", runs: feedDepth + 8, parallel: 1},
		{name: "one-proc", runs: 6, procs: 1},
	} {
		for _, pinned := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pinned=%v", shape.name, pinned), func(t *testing.T) {
				if shape.procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(shape.procs))
				}
				cfg := kmeansConfig(t)
				cfg.Runs = shape.runs
				if shape.parallel > 0 {
					cfg.Parallel = shape.parallel
				}
				if pinned {
					cfg.InjectExec = siteFor(t, cfg)
				}
				sweepMatchesNoFork(t, cfg, bitCounts, pinned)
			})
		}
	}
}

// sweepMatchesNoFork runs cfg's sweep forked and NoFork, demands the same
// summaries, and the prefix runs, forks and cache misses the ladder's rules
// give for the planned sites.
func sweepMatchesNoFork(t *testing.T, cfg Config, bitCounts []int, pinned bool) {
	t.Helper()
	scfg := cfg
	scfg.NoFork = true
	scratch, err := BitSweep(scfg, bitCounts)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	fcfg := cfg
	fcfg.Obs = reg
	emptyResidents()
	forked, err := BitSweep(fcfg, bitCounts)
	if err != nil {
		t.Fatal(err)
	}
	if len(scratch) != len(forked) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(scratch), len(forked))
	}
	for i := range scratch {
		if scratch[i].Bits != forked[i].Bits {
			t.Fatalf("entry %d: bits %d vs %d", i, scratch[i].Bits, forked[i].Bits)
		}
		summariesEqual(t, scratch[i].Summary, forked[i].Summary)
	}
	if a, b := SweepTable(scratch), SweepTable(forked); a != b {
		t.Errorf("sweep tables differ:\n%s\n%s", a, b)
	}
	// What the ladder's rules give for the sweep's one list, every task
	// handed to each entry in turn: the spine's positions cost one prefix
	// run each; a site a later copy or task shares a stretch with costs one
	// more, for the whole sweep; a run alone below the first position has
	// no snapshot and runs from program entry. The pinned site is the
	// spine's middle position itself: 4 positions, no rung beyond, nothing
	// from entry.
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := planTasks(cfg, base.totals)
	if err != nil {
		t.Fatal(err)
	}
	var list []task
	for _, tk := range tasks {
		for range bitCounts {
			list = append(list, tk)
		}
	}
	want := expectedWalk(list, base.totals)
	if pinned && (want != walkCounts{spine: spineIntervals / 2}) {
		t.Fatalf("the pinned site is not the middle position: %+v", want)
	}
	if got := reg.Counter("campaign_prefix_runs_total").Value(); got != uint64(want.spine+want.own) {
		t.Errorf("%d prefix runs, want %d (%+v)", got, want.spine+want.own, want)
	}
	// A run forks, repeats an earlier run's fault at its site or, nothing
	// resident below its site, starts at program entry; a handful of runs
	// repeats nothing.
	fr, rep := reg.Counter("campaign_forked_runs_total").Value(), reg.Counter("campaign_runs_repeated_total").Value()
	if w := uint64(len(list) - want.entry); fr+rep != w || cfg.Runs <= 6 && rep != 0 {
		t.Errorf("%d forked + %d repeated runs, want %d (%+v)", fr, rep, w, want)
	}
	if got, w := reg.Counter("campaign_snapshot_cache_misses_total").Value(), uint64(want.misses); got != w {
		t.Errorf("%d snapshot cache misses, want %d (%+v)", got, w, want)
	}
}

// TestCampaignForkInterruptAndResume is the forked flavor of the checkpoint
// acceptance test: a pinned-site (forking) campaign interrupted mid-flight
// and resumed from its journal must reproduce the uninterrupted summary
// bitwise.
func TestCampaignForkInterruptAndResume(t *testing.T) {
	cfg := kmeansConfig(t)
	cfg.Runs = 40
	cfg.Parallel = 2
	cfg.InjectExec = siteFor(t, cfg)
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Stop closes as the second run finishes, with the rest of the runs
	// queued ahead of the workers, which drop them: the campaign cannot outrun
	// the interrupt.
	path := filepath.Join(t.TempDir(), "run.jsonl")
	stop := make(chan struct{})
	var finished atomic.Int32
	icfg := cfg
	icfg.Journal = path
	icfg.Stop = stop
	icfg.RunObserver = func(int, int, RunOutcome, *core.RunResult) {
		if finished.Add(1) == 2 {
			close(stop)
		}
	}
	if _, err := Run(icfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run after Stop: %v, want ErrInterrupted", err)
	}

	rcfg := cfg
	rcfg.Journal = path
	res, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, full, res)
}

// TestJournalSiteMismatch: a pinned-site campaign's journal must not resume
// a sampling campaign (and vice versa) — their injection points differ.
func TestJournalSiteMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := kmeansConfig(t)
	cfg.Runs = 3
	cfg.InjectExec = siteFor(t, cfg)
	cfg.Journal = path
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Journal = path
	bad.InjectExec = 0
	if _, err := Run(bad); err == nil {
		t.Error("pinned-site journal resumed a sampling campaign")
	}
}

// TestCampaignInjectExecValidation: a pinned site beyond the golden
// execution count must fail up front, not silently never inject.
func TestCampaignInjectExecValidation(t *testing.T) {
	cfg := kmeansConfig(t)
	cfg.InjectExec = 1 << 60
	if _, err := Run(cfg); err == nil {
		t.Error("absurd InjectExec accepted")
	}
}
