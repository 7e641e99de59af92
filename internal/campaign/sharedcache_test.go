package campaign

import (
	"reflect"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/obs"
)

// TestSharedCacheIdenticalOutcomes pins the tentpole's correctness bar: a
// campaign with the shared base cache must classify every run exactly as the
// pre-shared-cache (private translator) behaviour does — same seeds, same
// outcome counts — while doing a fraction of the translation work.
func TestSharedCacheIdenticalOutcomes(t *testing.T) {
	app, err := apps.ByName("clamr")
	if err != nil {
		t.Fatal(err)
	}
	runMode := func(private bool) (*Summary, *obs.Registry) {
		reg := obs.NewRegistry()
		emptyResidents()
		sum, err := Run(Config{
			Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
			// The paper's overhead methodology targets FP arithmetic; those
			// opcodes concentrate in few blocks, which is exactly the case
			// JIT instrumentation (and the shared cache) is built for.
			Ops: app.DefaultOps, TargetRank: 0,
			Runs: 40, Bits: 1, Seed: 4242, Parallel: 4,
			NoSharedCache: private,
			Obs:           reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum, reg
	}
	shared, sharedReg := runMode(false)
	private, privateReg := runMode(true)
	if !reflect.DeepEqual(shared, private) {
		t.Errorf("summaries diverge:\nshared : %+v\nprivate: %+v", shared, private)
	}

	st := sharedReg.Counter("tcg_translations_total").Value()
	pt := privateReg.Counter("tcg_translations_total").Value()
	if st == 0 || pt == 0 {
		t.Fatalf("translation counters empty: shared=%d private=%d", st, pt)
	}
	if pt < 5*st {
		t.Errorf("translation work: shared=%d private=%d, want >= 5x reduction", st, pt)
	}
	if sharedReg.Counter("tcg_base_hits_total").Value() == 0 {
		t.Error("shared campaign never hit the base cache")
	}
	if sharedReg.Gauge("campaign_base_cache_blocks").Value() == 0 {
		t.Error("campaign_base_cache_blocks gauge not set")
	}
}

// TestBitSweepGoldenRunsOnce asserts the sweep memoization: the golden run
// (identical for every bit count) executes exactly once per sweep, and the
// sweep's per-entry summaries still match standalone campaigns.
func TestBitSweepGoldenRunsOnce(t *testing.T) {
	app, err := apps.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := Config{
		Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
		Ops: app.DefaultOps, TargetRank: 0,
		Runs: 12, Seed: 99, Parallel: 4,
		Obs: reg,
	}
	bitCounts := []int{1, 4, 16}
	emptyResidents()
	results, err := BitSweep(cfg, bitCounts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(bitCounts) {
		t.Fatalf("results = %d, want %d", len(results), len(bitCounts))
	}
	if n := reg.Counter("campaign_golden_runs_total").Value(); n != 1 {
		t.Errorf("golden runs = %d, want 1 (memoized across sweep entries)", n)
	}

	// Sweep entries must equal the standalone campaign at each bit count.
	for i, bits := range bitCounts {
		c := cfg
		c.Obs = nil
		c.Bits = bits
		c.Name = results[i].Summary.Name
		standalone, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i].Summary, standalone) {
			t.Errorf("bits=%d: sweep summary diverges from standalone campaign", bits)
		}
	}
}
