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
// disabled, while actually forking (one prefix run, every injection run
// forked).
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
	forked, err := Run(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, scratch, forked)
	if !reflect.DeepEqual(scratch.Outcomes, forked.Outcomes) {
		t.Error("per-run outcomes diverge between forked and scratch campaigns")
	}
	if got := reg.Counter("campaign_prefix_runs_total").Value(); got != 1 {
		t.Errorf("campaign_prefix_runs_total = %d, want 1 (single pinned site)", got)
	}
	fr := reg.Counter("campaign_forked_runs_total").Value()
	fb := reg.Counter("campaign_fork_fallbacks_total").Value()
	if fr+fb != uint64(cfg.Runs) {
		t.Errorf("forked (%d) + fallbacks (%d) != runs (%d)", fr, fb, cfg.Runs)
	}
	if fr == 0 {
		t.Error("no runs actually forked")
	}
	if hw := reg.Gauge("campaign_snapshot_cache_bytes_high_water").Value(); hw <= 0 {
		t.Errorf("snapshot cache high water = %v, want > 0", hw)
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
	fb := reg.Counter("campaign_fork_fallbacks_total").Value()
	if fr+fb != uint64(cfg.Runs) {
		t.Errorf("forked (%d) + fallbacks (%d) != runs (%d)", fr, fb, cfg.Runs)
	}
	if fr == 0 {
		t.Error("no MPI runs actually forked")
	}
}

// TestCampaignForkConcurrent forks a worker pool's runs from one pinned site
// concurrently: exactly one prefix run, and the summary still matches
// scratch.
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
	forked, err := Run(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, scratch, forked)
	if got := reg.Counter("campaign_prefix_runs_total").Value(); got != 1 {
		t.Errorf("campaign_prefix_runs_total = %d, want 1 (singleflight)", got)
	}
}

// TestBitSweepForkShared: sweep entries share one baseline and with it the
// snapshot cache. A pinned site is one rung for the whole sweep — built by
// the first entry, found resident by every later one; a random-site sweep
// walks one ladder per entry. Either way the results must be identical to a
// no-fork sweep's.
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
		// Each distinct site of an entry costs one prefix run; a pinned site
		// costs one for the whole sweep.
		wantMax := uint64(cfg.Runs * len(bitCounts))
		if pinned {
			wantMax = 1
		}
		if prefixes := reg.Counter("campaign_prefix_runs_total").Value(); prefixes == 0 || prefixes > wantMax {
			t.Errorf("pinned=%v: %d prefix runs, want 1..%d", pinned, prefixes, wantMax)
		}
		if got, want := reg.Counter("campaign_forked_runs_total").Value(), uint64(cfg.Runs*len(bitCounts)); got != want {
			t.Errorf("pinned=%v: %d forked runs, want %d", pinned, got, want)
		}
		// Only the first rung of each walk starts from program entry; with a
		// pinned site only the sweep's first.
		wantMisses := uint64(len(bitCounts))
		if pinned {
			wantMisses = 1
		}
		if misses := reg.Counter("campaign_snapshot_cache_misses_total").Value(); misses != wantMisses {
			t.Errorf("pinned=%v: %d snapshot cache misses, want %d", pinned, misses, wantMisses)
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
