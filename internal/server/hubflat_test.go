package server

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/memtest"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
)

// TestHubFlatAcrossCampaigns is the hub half of "flat memory for a service
// that runs for days": campaign after campaign through one durable hub over
// TCP, sharded over chaserd's in-process workers, leaves the hub holding
// nothing — every shard retires its namespaces when it completes — so what
// the hub stores, what its compacted log weighs and what the process keeps on
// its heap are the same after the fortieth campaign as after the tenth. (With
// per-client reply caches each of a campaign's runs left a cache behind in
// the hub and in every snapshot until 4,096 of them had accumulated.)
//
// It is the worker half too: the process keeps its app's baseline from shard
// to shard for both workers, so the forty campaigns cost one golden run, and
// what the baseline keeps is bounded by the guest's text — a block starts at an
// instruction, clean or under the one probe the app's campaigns arm. The
// golden run and the first campaigns fill most of it; after that a block is
// new only when a fault site falls on a targeted instruction for the first
// time (a fork resumes at its site, in the middle of a block), so campaigns 11
// to 40 together translate less than one cold shard did.
func TestHubFlatAcrossCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("40 campaigns through the service")
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, "hub.wal")
	hubReg := obs.NewRegistry()
	hub, err := tainthub.OpenDurable(walPath, tainthub.DurableConfig{Obs: hubReg})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	quiet := func(string, ...any) {}
	hubSrv, err := tainthub.NewServerConfig(hub, "127.0.0.1:0", tainthub.ServerConfig{Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer hubSrv.Close()

	srv, err := NewServer(ServerConfig{
		Addr:     "127.0.0.1:0",
		StoreDir: filepath.Join(dir, "chaserd"),
		Obs:      obs.NewRegistry(),
		Sched:    SchedConfig{Hubs: []string{hubSrv.Addr()}, Logf: quiet},
		Tenants:  TenantLimits{MaxActive: 1 << 20, RatePerSec: 1e9, Burst: 1 << 20},
		Logf:     quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{
			Name:         fmt.Sprintf("pool-%d", i),
			Control:      NewClient(srv.Addr()),
			PollInterval: 2 * time.Millisecond,
			Obs:          srv.Registry(),
			Logf:         quiet,
		})
		w.Start()
		defer w.Stop()
	}

	// weigh returns the size of the hub's log compacted now and the live
	// heap.
	weigh := func() (snap int64, heap uint64) {
		t.Helper()
		if err := hub.Snapshot(); err != nil {
			t.Fatal(err)
		}
		return hub.WALSize(), memtest.Live()
	}

	cl := NewClient(srv.Addr())
	const campaigns = 40
	var snap10, snap40 int64
	var heap10, heap40 uint64
	reg := srv.Registry()
	// warm reads what the workers' kept baselines cost so far: blocks ever
	// translated, and the blocks the last shard's cache held.
	warm := func() (translations uint64, blocks float64) {
		return reg.Counter("tcg_translations_total").Value(), reg.Gauge("campaign_base_cache_blocks").Value()
	}
	var tr10, tr40 uint64
	var blocks10, blocks40 float64
	for c := 1; c <= campaigns; c++ {
		id, err := cl.Submit(Spec{App: "matvec", Runs: 40, Seed: int64(1000 + c), Bits: 1, Shards: 4, Trace: true, Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.WaitSummary(id); err != nil {
			t.Fatal(err)
		}
		if st := hub.Stats(); st.Pending != 0 {
			t.Fatalf("after campaign %d the hub still stores %d entries (%+v)", c, st.Pending, st)
		}
		switch c {
		case 10:
			snap10, heap10 = weigh()
			tr10, blocks10 = warm()
		case campaigns:
			snap40, heap40 = weigh()
			tr40, blocks40 = warm()
		}
	}
	st := hub.Stats()
	if st.Published == 0 || st.Hits == 0 {
		t.Fatalf("the campaigns put no taint through the hub: %+v", st)
	}
	if got := hubReg.Counter("tainthub_retired_total").Value(); got != st.Published {
		t.Errorf("tainthub_retired_total = %d, published %d", got, st.Published)
	}
	if got := srv.Registry().Counter("campaign_hub_retire_failed_total").Value(); got != 0 {
		t.Errorf("campaign_hub_retire_failed_total = %d", got)
	}
	// Another test may have left matvec's baseline resident: then none.
	goldens := reg.Counter("campaign_golden_runs_total").Value()
	if goldens > 1 {
		t.Errorf("%d golden runs over %d campaigns of one app on two workers, want at most one for the process", goldens, campaigns)
	}
	if hits, claimed := reg.Counter("campaign_baseline_hits_total").Value(), reg.Counter("worker_shards_claimed_total").Value(); hits+goldens != claimed {
		t.Errorf("baseline hits %d + golden runs %d, but %d shards claimed", hits, goldens, claimed)
	}
	t.Logf("translations %d after 10 campaigns, %d after 40; base cache blocks %v, %v", tr10, tr40, blocks10, blocks40)
	app, err := apps.ByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	if bound := float64(2 * len(app.Prog.Code)); blocks10 == 0 || blocks40 > bound {
		t.Errorf("a kept base cache holds %v blocks (%v after 10 campaigns); the guest's text bounds it at %v", blocks40, blocks10, bound)
	}
	if float64(tr40-tr10) >= blocks10 {
		t.Errorf("campaigns 11 to 40 translated %d blocks on warm workers; a cold shard translates about %v", tr40-tr10, blocks10)
	}
	t.Logf("snapshot %d B after 10 campaigns, %d B after 40; heap %d KiB, %d KiB; hub stats %+v",
		snap10, snap40, heap10>>10, heap40>>10, st)
	// The counters in the checkpoint are varints, so thirty more campaigns of
	// traffic may lengthen them by a byte or two each; the entries and
	// everything per client are gone.
	if snap40 > snap10+8 {
		t.Errorf("snapshot grew from %d to %d bytes over 30 campaigns", snap10, snap40)
	}
	// chaserd keeps finished campaigns' scheduler state in memory (ROADMAP,
	// still open): up to about 180 KiB over these thirty campaigns. The hub
	// must add nothing on top; with reply caches the same stretch grew
	// 710 KiB.
	if grown := int64(heap40) - int64(heap10); grown > 400<<10 {
		t.Errorf("heap grew %d KiB between campaign 10 and campaign 40", grown>>10)
	}
}
