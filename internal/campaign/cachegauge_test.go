package campaign

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/core"
	"chaser/internal/obs"
)

// cacheBytes is campaign_snapshot_cache_bytes: the chain rungs the live pools
// on reg hold.
func cacheBytes(reg *obs.Registry) float64 {
	return reg.Gauge("campaign_snapshot_cache_bytes").Value()
}

// pinsOf is what the process's resident Baselines have pinned, counted rung
// by rung.
func pinsOf() (rungs int, bytes int64) {
	residents.mu.Lock()
	defer residents.mu.Unlock()
	for _, e := range residents.entries {
		select {
		case <-e.ready:
		default:
			continue // still preparing: nothing pinned yet
		}
		if e.base == nil {
			continue
		}
		e.base.mu.Lock()
		for _, pins := range e.base.spines {
			for _, ws := range pins {
				rungs, bytes = rungs+1, bytes+ws.FreshBytes()
			}
		}
		e.base.mu.Unlock()
	}
	return rungs, bytes
}

// TestCacheGaugeReadsZeroWhenNoPoolRuns: a chain rung leaves when its last
// hold goes — the head's, when the pool ends, and each queued job's, when a
// worker receives the job or Stop cancels its send — so on every bundled app
// campaign_snapshot_cache_bytes reads 0 after a campaign, a sweep, a campaign
// stopped mid-feed with its queue full and one whose prefix run fails. The
// spine gauges read the pins of the resident Baselines.
func TestCacheGaugeReadsZeroWhenNoPoolRuns(t *testing.T) {
	for _, name := range apps.Names() {
		t.Run(name, func(t *testing.T) {
			emptyResidents()
			reg := obs.NewRegistry()
			cfg := appConfig(t, name)
			cfg.Obs = reg
			spine := func(when string) {
				t.Helper()
				rungs, bytes := pinsOf()
				if g, b := reg.Gauge("campaign_spine_rungs").Value(), reg.Gauge("campaign_spine_bytes").Value(); g != float64(rungs) || b != float64(bytes) {
					t.Errorf("after %s: spine gauges read %v rungs, %v B; the resident pins are %d rungs, %d B", when, g, b, rungs, bytes)
				}
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if b := cacheBytes(reg); b != 0 || countsOf(reg).prefix == 0 {
				t.Errorf("after Run: campaign_snapshot_cache_bytes = %v after %d prefix runs, want 0", b, countsOf(reg).prefix)
			}
			spine("Run")
			if _, err := BitSweep(cfg, []int{1, 2}); err != nil {
				t.Fatal(err)
			}
			if b := cacheBytes(reg); b != 0 {
				t.Errorf("after BitSweep: campaign_snapshot_cache_bytes = %v, want 0", b)
			}
			spine("BitSweep")

			// Stop while the feeder waits to send a job holding the chain's
			// head: one worker, held in the observer on its first run until
			// the feeder has taken the Stop, and a pinned site off the cuts,
			// so every job forks from the site's own rung and the queue
			// fills behind the worker.
			base := residentFor(cfg).base
			rank := cfg.TargetRank
			n := base.totals[rank] * 2 / 5
			for n == 0 || onPosition(base.cuts[rank], n) {
				n++
			}
			stop := make(chan struct{})
			var blocked sync.Once
			scfg := cfg
			scfg.InjectExec, scfg.Runs, scfg.Parallel, scfg.Stop = n, 2*feedDepth, 1, stop
			scfg.RunObserver = func(int, int, RunOutcome, *core.RunResult) {
				blocked.Do(func() {
					time.Sleep(50 * time.Millisecond) // the feeder fills the queue
					close(stop)
					time.Sleep(50 * time.Millisecond) // and takes the Stop
				})
			}
			if _, err := Run(scfg); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("stopped campaign: %v, want ErrInterrupted", err)
			}
			if b := cacheBytes(reg); b != 0 {
				t.Errorf("after a Stop mid-feed: campaign_snapshot_cache_bytes = %v, want 0", b)
			}
			spine("a Stop mid-feed")

			// A budget of half the golden run's fails the first prefix run
			// past it, once the chain has rungs below it.
			fbase, err := Prepare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fbase.maxInstr /= 128
			fcfg := cfg
			fcfg.Runs = 40
			if _, err := fbase.Run(fcfg); err == nil || !strings.HasPrefix(err.Error(), "campaign: prefix run to") {
				t.Fatalf("Run on half the budget = %v, want a failed prefix run", err)
			}
			if b := cacheBytes(reg); b != 0 {
				t.Errorf("after a failed prefix run: campaign_snapshot_cache_bytes = %v, want 0", b)
			}
		})
	}
}

// TestCacheGaugeSumsConcurrentPools: two campaigns at once on one registry
// each charge their own chain rungs to campaign_snapshot_cache_bytes, so it
// never reads below zero, ends at zero, and its high water is at least what
// either walk keeps alone.
func TestCacheGaugeSumsConcurrentPools(t *testing.T) {
	cfg := appConfig(t, "lud")
	cfg.Runs = 60
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{cfg, cfg}
	cfgs[1].Seed = cfg.Seed + 1
	var alone float64
	for _, c := range cfgs {
		hw, _ := walkAlone(t, base, c)
		alone = max(alone, hw)
	}
	reg := obs.NewRegistry()
	low := 0.0
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			low = min(low, cacheBytes(reg))
			select {
			case <-done:
				return
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := range cfgs {
		cfgs[i].Obs = reg
		wg.Add(1)
		go func(c Config) {
			defer wg.Done()
			if _, err := base.Run(c); err != nil {
				t.Error(err)
			}
		}(cfgs[i])
	}
	wg.Wait()
	close(done)
	<-sampled
	hw := reg.Gauge("campaign_snapshot_cache_bytes_high_water").Value()
	t.Logf("high water %.0f B, the larger walk alone %.0f B", hw, alone)
	if b := cacheBytes(reg); b != 0 || low < 0 {
		t.Errorf("campaign_snapshot_cache_bytes ends at %v and read as low as %v, want 0 and never below", b, low)
	}
	if alone == 0 || hw < alone {
		t.Errorf("high water %v B, below the %v B one walk keeps alone", hw, alone)
	}
}
