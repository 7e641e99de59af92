package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"chaser/internal/obs"
)

// TestBitSweepEntriesMatchRuns: every entry of a sweep — its tasks handed out
// back to back with the other entries', on one ladder and one repeats index —
// reports what a campaign of its own at that bit count reports, summary JSON
// byte for byte: on clamr at random sites and at a pinned one, and on
// clamr_mpi, each forked and NoFork. Two entries of one bit count share
// their first runs at the pinned site, and each still reports its own.
func TestBitSweepEntriesMatchRuns(t *testing.T) {
	bitCounts := []int{1, 2, 4, 8, 16}
	clamr := appConfig(t, "clamr")
	clamr.Runs, clamr.Trace, clamr.KeepRunOutcomes = 30, false, false
	pinned := clamr
	pinned.Runs, pinned.InjectExec = 40, 3000
	mpi := appConfig(t, "clamr_mpi")
	mpi.Runs, mpi.KeepRunOutcomes = 16, false
	for _, tc := range []struct {
		name string
		cfg  Config
		bits []int
	}{
		{"clamr", clamr, bitCounts},
		{"clamr-pinned", pinned, bitCounts},
		{"clamr-pinned-twice", pinned, []int{2, 2}},
		{"clamr_mpi", mpi, bitCounts},
	} {
		for _, noFork := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/nofork=%v", tc.name, noFork), func(t *testing.T) {
				cfg := tc.cfg
				cfg.NoFork = noFork
				entries, err := BitSweep(cfg, tc.bits)
				if err != nil {
					t.Fatal(err)
				}
				for i, bits := range tc.bits {
					c := cfg
					c.Bits, c.Name = bits, fmt.Sprintf("%s/bits=%d", cfg.Name, bits)
					alone, err := Run(c)
					if err != nil {
						t.Fatal(err)
					}
					want, err := json.Marshal(alone)
					if err != nil {
						t.Fatal(err)
					}
					got, err := json.Marshal(entries[i].Summary)
					if err != nil {
						t.Fatal(err)
					}
					if entries[i].Bits != bits || !bytes.Equal(got, want) {
						t.Errorf("entry %d (bits %d) reports\n%s\na campaign of its own at %d bits\n%s",
							i, entries[i].Bits, got, bits, want)
					}
				}
			})
		}
	}
}

// TestSweepGaugeIsThePools: a sweep's entries are one pool, and
// campaign_runs_per_second is that pool's throughput — every entry's runs
// over the pool's elapsed time, within 10% of what the caller measures —
// not the share of one entry, which each entry's progress is.
func TestSweepGaugeIsThePools(t *testing.T) {
	cfg := appConfig(t, "clamr")
	cfg.Runs, cfg.Trace, cfg.Parallel, cfg.KeepRunOutcomes = 600, false, 2, false
	if _, err := BitSweep(cfg, []int{1, 2}); err != nil { // the resident Baseline and its spine
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Obs, cfg.ProgressInterval = reg, 5*time.Millisecond
	var mu sync.Mutex
	var entryRate float64
	cfg.Progress = func(p ProgressInfo) {
		mu.Lock()
		entryRate = p.RunsPerSec
		mu.Unlock()
	}
	start := time.Now()
	if _, err := BitSweep(cfg, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	want := float64(2*cfg.Runs) / time.Since(start).Seconds()
	got := reg.Gauge("campaign_runs_per_second").Value()
	t.Logf("campaign_runs_per_second %.0f, pool's runs over the sweep's time %.0f, an entry's last progress %.0f", got, want, entryRate)
	if got < 0.9*want || got > 1.1*want {
		t.Errorf("campaign_runs_per_second = %.0f, want the pool's %.0f within 10%%", got, want)
	}
}
