package campaign

import (
	"fmt"
	"path/filepath"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/core"
	"chaser/internal/memtest"
	"chaser/internal/obs"
)

// TestCampaignLogLessDifferential holds the two shapes of a traced run to
// each other. A campaign without a RunObserver runs with core's NoAccessLog —
// no tainted-access callback, no stored record — and one with an observer
// keeps the log; nothing a campaign reports may tell them apart. Every
// bundled guest, forked and NoFork, three seeds: the two journals are the same
// bytes, and in every observed run the totals Classify took from the
// machines' counters are the log's own.
func TestCampaignLogLessDifferential(t *testing.T) {
	for _, name := range apps.Names() {
		for _, noFork := range []bool{false, true} {
			for _, seed := range []int64{1207, 88, 40961} {
				t.Run(fmt.Sprintf("%s/nofork=%v/seed=%d", name, noFork, seed), func(t *testing.T) {
					cfg := appConfig(t, name)
					cfg.Seed, cfg.NoFork = seed, noFork
					cfg.Parallel = 1 // a journal is in completion order
					dir := t.TempDir()

					bare := cfg
					bare.Journal = filepath.Join(dir, "bare.journal")
					bare.Obs = obs.NewRegistry()
					want, err := Run(bare)
					if err != nil {
						t.Fatal(err)
					}
					if n := bare.Obs.Counter("core_runs_access_log_kept_total").Value(); n != 0 {
						t.Errorf("%d runs of a campaign nobody observes kept their access log", n)
					}

					seen := cfg
					seen.Journal = filepath.Join(dir, "seen.journal")
					seen.Obs = obs.NewRegistry()
					observed := 0
					seen.RunObserver = func(idx, _ int, out RunOutcome, res *core.RunResult) {
						if res == nil {
							return
						}
						observed++
						if !res.Trace.AccessLogKept() {
							t.Errorf("run %d: an observed run kept no access log", idx)
						}
						var reads, writes uint64
						for _, c := range res.Counters {
							reads += c.TaintedMemReads
							writes += c.TaintedMemWrites
						}
						lr, lw := res.Trace.TotalReads(), res.Trace.TotalWrites()
						if out.TaintedReads != lr || out.TaintedWrites != lw || reads != lr || writes != lw {
							t.Errorf("run %d: classified %d/%d tainted reads/writes, counters %d/%d, log %d/%d",
								idx, out.TaintedReads, out.TaintedWrites, reads, writes, lr, lw)
						}
					}
					got, err := Run(seen)
					if err != nil {
						t.Fatal(err)
					}
					if observed == 0 {
						t.Fatal("the observer saw no run")
					}
					if n := seen.Obs.Counter("core_runs_access_log_kept_total").Value(); n < uint64(observed) {
						t.Errorf("core_runs_access_log_kept_total = %d over %d observed runs", n, observed)
					}

					sameCampaign(t, want, got)
					sameFile(t, bare.Journal, seen.Journal)
				})
			}
		}
	}
}

// clamrShards is the campaign the service path runs for clamr_mpi, in
// process: 200 traced runs in 8 shards on one kept Baseline, two workers, a
// private hub a run.
func clamrShards(tb testing.TB) (*Baseline, []Config) {
	tb.Helper()
	cfg := appConfig(tb, "clamr_mpi")
	cfg.Runs, cfg.Seed, cfg.KeepRunOutcomes = 200, 7, false
	base, err := Prepare(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	shards := make([]Config, 8)
	for i := range shards {
		shards[i] = cfg
		shards[i].Shard = &ShardRange{Lo: 25 * i, Hi: 25 * (i + 1)}
	}
	return base, shards
}

func observeNothing(int, int, RunOutcome, *core.RunResult) {}

// runShards runs the shards on the baseline, observed (access log kept) or
// not, and returns the bytes the process allocated meanwhile.
func runShards(tb testing.TB, base *Baseline, shards []Config, observed bool) uint64 {
	tb.Helper()
	return memtest.Allocated(func() {
		for _, cfg := range shards {
			if observed {
				cfg.RunObserver = observeNothing
			}
			if _, err := base.Run(cfg); err != nil {
				tb.Fatal(err)
			}
		}
	})
}

// TestCampaignRunAllocBudget is the guard on what a campaign run allocates
// when nobody reads its access log: the traced clamr_mpi campaign of the
// service path measured 504 KB a run while every run built the log (45% of it
// log chunks) and measures about 277 KB without. An observed campaign still
// builds it, and must not cost more than it did.
func TestCampaignRunAllocBudget(t *testing.T) {
	const (
		budget         = 320 << 10
		observedBudget = 530 << 10
	)
	base, shards := clamrShards(t)
	runShards(t, base, shards[:1], false) // the campaign's first forks fill the translation cache
	perRun := func(observed bool) uint64 {
		best := ^uint64(0)
		for i := 0; i < 2; i++ {
			best = min(best, runShards(t, base, shards, observed)/200)
		}
		return best
	}
	bare, seen := perRun(false), perRun(true)
	t.Logf("a traced clamr_mpi campaign run allocates %d KB, %d KB when observed", bare>>10, seen>>10)
	if bare > budget {
		t.Errorf("a traced clamr_mpi campaign run allocates %d B with no observer, budget %d", bare, budget)
	}
	if seen > observedBudget {
		t.Errorf("an observed traced clamr_mpi campaign run allocates %d B, budget %d", seen, observedBudget)
	}
}

// BenchmarkCampaignTraced times that campaign in both shapes; -benchmem shows
// what the access log costs a campaign that nobody observes.
func BenchmarkCampaignTraced(b *testing.B) {
	for _, observed := range []bool{false, true} {
		name := "no-observer"
		if observed {
			name = "observed"
		}
		b.Run(name, func(b *testing.B) {
			base, shards := clamrShards(b)
			runShards(b, base, shards[:1], observed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runShards(b, base, shards, observed)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/200, "µs/run")
		})
	}
}
