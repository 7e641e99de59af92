package campaign

import (
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"chaser/internal/apps"
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
// spine and the snapshot cache. A pinned site is one rung for the whole sweep
// — built by the first entry, found resident by every later one; a
// random-site sweep walks one ladder per entry over the one spine. Either way
// the results must be identical to a no-fork sweep's.
func TestBitSweepForkShared(t *testing.T) {
	cfg := kmeansConfig(t)
	cfg.Runs = 6
	bitCounts := []int{1, 2, 4}

	for _, pinned := range []bool{false, true} {
		if pinned {
			cfg.InjectExec = siteFor(t, cfg)
		}
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
		// What the ladder's rules give for the planned sites: the spine's
		// positions cost one prefix run each for the whole sweep; a site a
		// later task shares a stretch with costs an entry one more, less the
		// last rung of the entry before, found resident again; a run alone
		// below the first position has no snapshot and runs from program
		// entry. The pinned site is the spine's middle position itself: 4
		// positions, no rung beyond, nothing from entry.
		base, err := Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := planTasks(cfg, base.totals)
		if err != nil {
			t.Fatal(err)
		}
		want, entries := expectedWalk(tasks, base.totals), len(bitCounts)
		wantPrefix := want.spine + entries*want.own
		if want.own > 0 {
			wantPrefix -= entries - 1
		}
		if pinned && (want != walkCounts{spine: spineIntervals / 2}) {
			t.Fatalf("the pinned site is not the middle position: %+v", want)
		}
		if got := reg.Counter("campaign_prefix_runs_total").Value(); got != uint64(wantPrefix) {
			t.Errorf("pinned=%v: %d prefix runs, want %d (%+v)", pinned, got, wantPrefix, want)
		}
		if got, w := reg.Counter("campaign_forked_runs_total").Value(), uint64(entries*(cfg.Runs-want.entry)); got != w {
			t.Errorf("pinned=%v: %d forked runs, want %d (%+v)", pinned, got, w, want)
		}
		if got, w := reg.Counter("campaign_snapshot_cache_misses_total").Value(), uint64(entries*want.misses); got != w {
			t.Errorf("pinned=%v: %d snapshot cache misses, want %d (%+v)", pinned, got, w, want)
		}
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

	path := filepath.Join(t.TempDir(), "run.jsonl")
	interrupted := false
	for attempt := 0; attempt < 5 && !interrupted; attempt++ {
		stop := make(chan struct{})
		var once sync.Once
		icfg := cfg
		icfg.Journal = path
		icfg.Stop = stop
		icfg.ProgressInterval = time.Millisecond
		icfg.Progress = func(p ProgressInfo) {
			if p.Done >= 2 {
				once.Do(func() { close(stop) })
			}
		}
		_, err := Run(icfg)
		switch {
		case errors.Is(err, ErrInterrupted):
			interrupted = true
		case err == nil:
			// The whole campaign outran the interrupt; try again.
		default:
			t.Fatal(err)
		}
	}
	if !interrupted {
		t.Fatal("campaign never interrupted across 5 attempts")
	}

	rcfg := cfg
	rcfg.Resume = path
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
	bad.Journal = ""
	bad.Resume = path
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
