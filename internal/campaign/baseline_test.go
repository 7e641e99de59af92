package campaign

import (
	"strings"
	"sync"
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/core"
	"chaser/internal/isa"
	"chaser/internal/obs"
)

// TestBaselineRejectsUntargetableRank: Prepare takes the target rank from
// outside, so a rank the world does not have, and a drawn rank when no rank
// executes the ops, are errors — the first used to index past the golden
// counts, the second to redraw a rank forever.
func TestBaselineRejectsUntargetableRank(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"no rank executes the ops", func(c *Config) { c.TargetRank, c.Ops = -1, []isa.Op{isa.OpFDiv} }, "no rank executes"},
		{"rank past the world", func(c *Config) { c.TargetRank = c.WorldSize }, "outside [-1, 1)"},
		{"rank below -1", func(c *Config) { c.TargetRank = -2 }, "outside [-1, 1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := appConfig(t, "bfs")
			tc.edit(&cfg)
			done := make(chan error, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("panic: %v", r)
						done <- nil
					}
				}()
				_, err := Run(cfg)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("Run = %v, want an error naming %q", err, tc.want)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("Run hangs")
			}
		})
	}
}

// TestPrepareRejectsBudgetBelowGolden: a Config.MaxInstructions that cuts
// the golden run short fails in Prepare, on a serial and an MPI guest, so no
// Baseline exists whose prefix runs — which replay the golden run under the
// same budget — could run out of it. The golden run's own peak is enough.
func TestPrepareRejectsBudgetBelowGolden(t *testing.T) {
	for _, name := range []string{"lud", "clamr_mpi"} {
		t.Run(name, func(t *testing.T) {
			cfg := appConfig(t, name)
			g, err := core.Golden(cfg.Prog, cfg.WorldSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			var peak uint64
			for _, c := range g.Counters {
				peak = max(peak, c.Instructions)
			}
			cfg.MaxInstructions = peak - 1
			if _, err := Prepare(cfg); err == nil || !strings.Contains(err.Error(), "golden run") {
				t.Errorf("a budget of %d below the golden run's %d: Prepare = %v, want a golden-run error", cfg.MaxInstructions, peak, err)
			}
			cfg.MaxInstructions = peak
			if _, err := Prepare(cfg); err != nil {
				t.Errorf("a budget of the golden run's %d instructions: %v", peak, err)
			}
		})
	}
}

// TestBaselineSharedByConcurrentCampaigns runs two campaigns' shards on one
// Baseline from two goroutines at once — what two workers' shards would do to
// a shared one, and the reason the ladder, which has no lock, belongs to the
// run — and holds each to its standalone twin. One golden run serves all.
func TestBaselineSharedByConcurrentCampaigns(t *testing.T) {
	for _, name := range []string{"kmeans", "matvec"} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := appConfig(t, name)
			cfg.Obs = reg
			base, err := Prepare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			got := make([]*Summary, 2)
			cfgs := make([]Config, 2)
			for i := range got {
				c := cfg
				c.Seed = cfg.Seed + int64(i)*31
				c.Runs = 16
				c.Shard = &ShardRange{Lo: 4 * i, Hi: 4*i + 10}
				cfgs[i] = c
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sum, err := base.Run(cfgs[i])
					if err != nil {
						t.Error(err)
					}
					got[i] = sum
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if g := reg.Counter("campaign_golden_runs_total").Value(); g != 1 {
				t.Errorf("campaign_golden_runs_total = %d, want 1", g)
			}
			for i, c := range cfgs {
				c.Obs = nil
				want, err := Run(c)
				if err != nil {
					t.Fatal(err)
				}
				sameCampaign(t, want, got[i])
			}
		})
	}
}

// TestBaselineRefusesForeignConfig: a Baseline serves the Configs that would
// have prepared the same one. Anything that feeds the golden run or the
// translation cache and differs is an error, not a silently wrong campaign;
// what belongs to the campaign alone may differ freely.
func TestBaselineRefusesForeignConfig(t *testing.T) {
	cfg := appConfig(t, "kmeans")
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other, err := apps.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"program", func(c *Config) { c.Prog = other.Prog }},
		{"world size", func(c *Config) { c.WorldSize = 2 }},
		{"ops", func(c *Config) { c.Ops = c.Ops[:1] }},
		{"instruction budget", func(c *Config) { c.MaxInstructions = 1 << 30 }},
		{"NoFastPath", func(c *Config) { c.NoFastPath = true }},
		{"NoSharedCache", func(c *Config) { c.NoSharedCache = true }},
		{"target rank", func(c *Config) { c.TargetRank = 1 }},
		{"run count", func(c *Config) { c.Runs = 0 }},
	} {
		c := cfg
		tc.edit(&c)
		if _, err := base.Run(c); err == nil {
			t.Errorf("a Config with another %s ran on the baseline", tc.name)
		}
	}
	c := cfg
	c.Name, c.Seed, c.Bits, c.Runs, c.Trace, c.NoFork, c.TargetRank, c.WorldSize = "other", 5, 2, 3, false, true, -1, 0
	if _, err := base.Run(c); err != nil {
		t.Errorf("a Config differing only in what the campaign owns was refused: %v", err)
	}
}
