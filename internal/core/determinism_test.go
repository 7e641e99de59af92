package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/tainthub"
)

// servedDurableHub opens a fresh durable hub behind a TCP server and returns
// a client to it; everything is closed with the test.
func servedDurableHub(t *testing.T) tainthub.Hub {
	t.Helper()
	durable, err := tainthub.OpenDurable(filepath.Join(t.TempDir(), "hub.wal"), tainthub.DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tainthub.NewServer(durable, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := tainthub.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		durable.Close()
	})
	return client
}

// sameRun fails unless two from-scratch runs of one configuration agree on
// everything a run reports: what compareRuns holds a fork to against its
// from-scratch twin — terminations, outputs, consoles, counters (less the
// translation-cache statistics normalizeCounters documents), injection
// records, the propagation log byte for byte — and the hub statistics.
func sameRun(t *testing.T, label string, a, b *RunResult) {
	t.Helper()
	compareRuns(t, label, a, b)
	if a.HubStats != b.HubStats {
		t.Errorf("%s: hub statistics differ between two runs:\n %+v\n %+v", label, a.HubStats, b.HubStats)
	}
}

// sameLog fails unless two runs wrote the same propagation log, byte for byte.
func sameLog(t *testing.T, label string, a, b *RunResult) {
	t.Helper()
	var la, lb bytes.Buffer
	if _, err := a.Trace.WriteTo(&la); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Trace.WriteTo(&lb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(la.Bytes(), lb.Bytes()) {
		t.Errorf("%s: propagation logs differ (%d and %d bytes)", label, la.Len(), lb.Len())
	}
}

// TestRunIsAFunctionOfItsSeed: an MPI run has no input but its configuration.
// For fifty injected faults on each MPI guest — every rank a target, tracing
// on — two from-scratch runs agree on everything, on private hubs and through
// a durable hub behind its TCP server.
func TestRunIsAFunctionOfItsSeed(t *testing.T) {
	for _, name := range []string{"matvec", "clamr_mpi"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := Golden(app.Prog, app.WorldSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, hub := range []string{"private", "durable-tcp"} {
			t.Run(name+"/"+hub, func(t *testing.T) {
				abnormal, propagated := 0, 0
				for seed := int64(0); seed < 50; seed++ {
					rank := int(seed) % app.WorldSize
					var execs uint64
					for _, op := range app.DefaultOps {
						execs += golden.Counters[rank].PerOp[op]
					}
					spec := &Spec{
						Target: app.Prog.Name, Ops: app.DefaultOps, TargetRank: rank,
						Cond: Deterministic{N: 1 + uint64(rand.New(rand.NewSource(seed)).Int63n(int64(execs)))},
						Bits: 1, Seed: seed, Trace: true,
					}
					var runs [2]*RunResult
					for i := range runs {
						cfg := RunConfig{Prog: app.Prog, WorldSize: app.WorldSize, Spec: spec}
						if hub == "durable-tcp" {
							cfg.Hub = servedDurableHub(t)
						}
						if runs[i], err = Run(cfg); err != nil {
							t.Fatal(err)
						}
					}
					if !runs[0].Injected() {
						t.Fatalf("seed %d: no injection at %v on rank %d", seed, spec.Cond, rank)
					}
					sameRun(t, fmt.Sprintf("seed %d (rank %d, %v)", seed, rank, spec.Cond), runs[0], runs[1])
					if runs[0].FirstAbnormal() >= 0 {
						abnormal++
					}
					if runs[0].Trace.Propagated() {
						propagated++
					}
				}
				// The comparison means something only if the faults did.
				t.Logf("50 runs: %d ended abnormally, %d carried taint across ranks", abnormal, propagated)
				if abnormal == 0 || propagated == 0 {
					t.Errorf("%d abnormal and %d propagating runs: the seeds exercise neither aborts nor the hub", abnormal, propagated)
				}
			})
		}
	}
}
