package campaign

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
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
