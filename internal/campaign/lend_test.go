package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"chaser/internal/core"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
)

// TestLentResultsNeverLeak: a campaign reads each run's result in place, lent
// by the run's session (core.Lend), and hands it back once the run is
// classified; the session's next run writes over all of it, so nothing the
// campaign keeps may reach it. A KeepRunOutcomes campaign of 1,000 runs at
// one pinned site, on one worker — every run on the session the run before it
// handed back — keeps outcomes, injection records included, and a journal
// that are byte for byte its NoFork twin's, and the outcomes it keeps are the
// ones its journal wrote as each run finished. An outcome that still held a
// lent slice would read what a later run left there instead.
func TestLentResultsNeverLeak(t *testing.T) {
	cfg := pinnedConfig(t, "matvec", 1000, 1, true)
	cfg.Parallel = 1
	dir := t.TempDir()
	twin := cfg
	twin.NoFork = true
	twin.Journal = filepath.Join(dir, "nofork.journal")
	cfg.Journal = filepath.Join(dir, "forked.journal")
	want, err := Run(twin)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if distinctFaults(t, got.Outcomes) < 2 {
		t.Fatal("every run injected the same fault: a leak could not show")
	}
	sameCampaign(t, want, got)
	sameFile(t, twin.Journal, cfg.Journal)
	for _, c := range []struct {
		journal string
		sum     *Summary
	}{{twin.Journal, want}, {cfg.Journal, got}} {
		j, written, err := ResumeJournal(c.journal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if len(written) != cfg.Runs {
			t.Fatalf("%s holds %d runs, want %d", filepath.Base(c.journal), len(written), cfg.Runs)
		}
		for idx, o := range c.sum.Outcomes {
			// A journal entry is JSON: it holds what the JSON of an outcome
			// holds.
			w, err1 := json.Marshal(written[idx])
			k, err2 := json.Marshal(o)
			if err1 != nil || err2 != nil || !bytes.Equal(w, k) {
				t.Errorf("%s: run %d was journaled as\n %s\nand is kept as\n %s", filepath.Base(c.journal), idx, w, k)
				break
			}
		}
	}
}

// TestCampaignSessionsReused: a campaign's prefix runs are runs of its own
// session shape on the pool its runs draw from, so a 200-run campaign on two
// workers builds a session per goroutine that runs one, not one per rung —
// lud and clamr_mpi, with a private hub a run and with one shared
// tainthub.Local, and with a run observer (its runs keep the access log, the
// prefix runs do not) or an event sink (the prefix runs emit nothing). Under
// -race sync.Pool drops what it is given at random, and the bound is not
// checked.
func TestCampaignSessionsReused(t *testing.T) {
	// sync.Pool keeps a session per P where no other P can take it, so the
	// count grows with GOMAXPROCS: the campaigns run on at most two Ps, one
	// per worker.
	if runtime.GOMAXPROCS(0) > 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	check := func(t *testing.T, cfg Config) {
		t.Helper()
		cfg.Runs, cfg.KeepRunOutcomes = 200, false
		cfg.Obs = obs.NewRegistry()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		built := cfg.Obs.Counter("core_sessions_built_total").Value()
		prefixes := cfg.Obs.Counter("campaign_prefix_runs_total").Value()
		t.Logf("%d runs and %d prefix runs built %d sessions", cfg.Runs, prefixes, built)
		if prefixes == 0 {
			t.Fatal("the campaign ran no prefix: nothing to share sessions with")
		}
		if built > 16 && !raceEnabled {
			t.Errorf("%d runs and %d prefix runs built %d sessions, want at most 16", cfg.Runs, prefixes, built)
		}
	}
	for _, name := range []string{"lud", "clamr_mpi"} {
		for _, shared := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/shared=%v", name, shared), func(t *testing.T) {
				cfg := appConfig(t, name)
				if shared {
					cfg.Hub = tainthub.NewLocal()
				}
				check(t, cfg)
			})
		}
		t.Run(name+"/observer", func(t *testing.T) {
			cfg := appConfig(t, name)
			cfg.RunObserver = func(int, int, RunOutcome, *core.RunResult) {}
			check(t, cfg)
		})
		t.Run(name+"/events", func(t *testing.T) {
			cfg := appConfig(t, name)
			cfg.Events = obs.NewSink(1 << 10)
			check(t, cfg)
		})
	}
}
