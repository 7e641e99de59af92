package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/campaign"
	"chaser/internal/obs"
)

// TestServiceRunsMatchTwin is the detector for what ROADMAP called
// divergences (a) and (b): about one clamr_mpi campaign in fifty through the
// service came back with one run's cross-rank taint missing, about one in
// thirty-five with a run classified OutcomeNoInjection, and the in-process
// twin never did. Fifty campaigns of 120 runs go through chaserd's scheduler
// and two in-process pool workers — sharded, on kept baselines, their taint
// through a durable hub over TCP — and every run's outcome, read back from the
// shard journals, must be the outcome the same campaign has in one process on
// private hubs. The first run that differs fails the test with both outcomes
// and the workers' lost-taint count.
func TestServiceRunsMatchTwin(t *testing.T) {
	if testing.Short() {
		t.Skip("50 campaigns through the service and as many twins")
	}
	app, err := apps.ByName("clamr_mpi")
	if err != nil {
		t.Fatal(err)
	}
	quiet := func(string, ...any) {}
	reg := obs.NewRegistry()
	srv, err := NewServer(ServerConfig{
		Addr:     "127.0.0.1:0",
		StoreDir: t.TempDir(),
		Obs:      reg,
		Sched:    SchedConfig{Hubs: []string{testHub(t)}, ExpiryInterval: time.Hour, Logf: quiet},
		Tenants:  TenantLimits{MaxActive: 1 << 20, RatePerSec: 1e9, Burst: 1 << 20},
		Logf:     quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	sched := srv.Scheduler()
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{
			Name:         fmt.Sprintf("pool-%d", i),
			Control:      LocalControl{Sched: sched},
			PollInterval: 2 * time.Millisecond,
			Obs:          reg,
			Logf:         quiet,
		})
		w.Start()
		defer w.Stop()
	}
	lost := func() uint64 { return reg.Counter("core_hub_taint_lost_total").Value() }

	const campaigns, runs = 50, 120
	propagated, noInjection := 0, 0
	for c := 0; c < campaigns; c++ {
		sp := Spec{App: app.Name, Runs: runs, Seed: int64(4000 + c), Bits: 1, Shards: 8, Trace: true, Parallel: 1}
		id, err := sched.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		cfg := campaignConfig(sp.normalize(), app, 0)
		cfg.KeepRunOutcomes = true
		twin, err := campaign.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-sched.Done(id):
		case <-time.After(2 * time.Minute):
			t.Fatalf("campaign %d (seed %d) did not complete", c, sp.Seed)
		}
		paths := make([]string, sp.Shards)
		for i := range paths {
			paths[i] = srv.store.JournalPath(id, i)
		}
		served, err := campaign.MergeJournals(cfg, nil, paths...)
		if err != nil {
			t.Fatalf("campaign %d (seed %d): %v", c, sp.Seed, err)
		}
		// The twin's outcomes never went through a journal, which drops what
		// an outcome does not serialize: the two are compared as a journal
		// would write them.
		for i := range twin.Outcomes {
			a, _ := json.Marshal(served.Outcomes[i])
			b, _ := json.Marshal(twin.Outcomes[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("campaign %d (seed %d) run %d:\n service %+v\n twin    %+v\n core_hub_taint_lost_total = %d",
					c, sp.Seed, i, served.Outcomes[i], twin.Outcomes[i], lost())
			}
			if twin.Outcomes[i].Outcome == campaign.OutcomeNoInjection {
				noInjection++
			}
		}
		propagated += twin.PropagatedRuns
	}
	t.Logf("%d campaigns of %d runs agree run by run; %d runs carried taint across ranks, %d were not injected, core_hub_taint_lost_total = %d",
		campaigns, runs, propagated, noInjection, lost())
	if propagated == 0 {
		t.Error("no run carried taint across ranks: the campaigns do not exercise the hub")
	}
	if n := lost(); n != 0 {
		t.Errorf("core_hub_taint_lost_total = %d", n)
	}
}
