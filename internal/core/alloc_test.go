package core

import (
	"runtime"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/tcg"
)

// TestTracedRunAllocBudget is the propagation log's allocation guard, the
// traced twin of the vm's TestFastPathNoAlloc: the bytes a traced clamr_mpi
// run allocates beyond the same run untraced, per access it logs, stay under
// logBytesPerAccess. A packed record is 56 bytes and a log grows by whole
// 256-record chunks, never by copying; the rest of the allowance is what
// tracing allocates besides the log (shadow pages, hub payloads — about 45
// bytes per access on this guest). A log of 88-byte events in one slice grown
// by doubling from nil measured 512.
func TestTracedRunAllocBudget(t *testing.T) {
	const logBytesPerAccess = 128
	app, err := apps.ByName("clamr_mpi")
	if err != nil {
		t.Fatal(err)
	}
	cache := tcg.NewBaseCache(app.Prog)
	allocated := func(traced bool) (bytes, accesses uint64) {
		t.Helper()
		cfg := RunConfig{
			Prog: app.Prog, WorldSize: app.WorldSize, BaseCache: cache,
			Spec: &Spec{
				Target: app.Name, Ops: app.DefaultOps, TargetRank: 0,
				Cond: Deterministic{N: 1000}, Inj: IdentityInjector{Bits: 8}, Seed: 3, Trace: traced,
			},
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, res.Trace.TotalReads() + res.Trace.TotalWrites()
	}
	allocated(true) // fill the translation cache
	best := ^uint64(0)
	var accesses uint64
	for i := 0; i < 3; i++ {
		traced, n := allocated(true)
		untraced, _ := allocated(false)
		if n < 10_000 {
			t.Fatalf("the run logged %d accesses; the guard needs a log worth measuring", n)
		}
		if traced > untraced {
			best, accesses = min(best, (traced-untraced)/n), n
		}
	}
	if best > logBytesPerAccess {
		t.Errorf("tracing allocates %d bytes per logged access (%d accesses), budget %d", best, accesses, logBytesPerAccess)
	}
}
