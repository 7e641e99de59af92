package campaign

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"chaser/internal/core"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
)

// TestRetireOnlyWhenWindowCompletes: an interrupted shard leaves its hub
// entries alone — the worker may have lost its lease, and the entries may by
// now be those of the attempt that replaced it — and the re-execution that
// completes the window retires exactly the window: the neighbouring shards'
// namespaces on either side are untouched.
func TestRetireOnlyWhenWindowCompletes(t *testing.T) {
	cfg := appConfig(t, "matvec")
	cfg.Runs = 40
	cfg.Shard = &ShardRange{Lo: 10, Hi: 30}
	cfg.Parallel = 1
	want, err := Run(cfg) // private hubs, uninterrupted
	if err != nil {
		t.Fatal(err)
	}

	hub := tainthub.NewLocal()
	const base = 500
	neighbours := []tainthub.Key{{Src: 0, Dst: 1, NS: base + 9}, {Src: 0, Dst: 1, NS: base + 30}}
	for _, k := range neighbours {
		if err := hub.Publish(tainthub.ReqID{}, k, 0, []uint8{1}); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	cfg.Hub, cfg.HubNamespaceBase, cfg.Obs = hub, base, reg
	cfg.HubPolicy = core.HubFailRun
	path := filepath.Join(t.TempDir(), "shard.journal")

	// Interrupt once a run of the window has left taint on the hub.
	stop := make(chan struct{})
	var once sync.Once
	icfg := cfg
	icfg.Journal, icfg.Stop = path, stop
	icfg.RunObserver = func(int, int, RunOutcome, *core.RunResult) {
		if hub.Stats().Pending > len(neighbours) {
			once.Do(func() { close(stop) })
		}
	}
	if _, err := Run(icfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted shard returned %v", err)
	}
	left := hub.Stats().Pending
	if left <= len(neighbours) {
		t.Fatalf("the interrupted shard retired its entries: %+v", hub.Stats())
	}

	rcfg := cfg
	rcfg.Journal = path
	got, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, want, got)
	if st := hub.Stats(); st.Pending != len(neighbours) {
		t.Errorf("after the re-execution the hub stores %d entries, want the %d neighbours: %+v",
			st.Pending, len(neighbours), st)
	}
	for _, k := range neighbours {
		if _, ok, _ := hub.Poll(tainthub.ReqID{}, k, 0); !ok {
			t.Errorf("namespace %d went with the window [%d, %d)", k.NS, base+10, base+30)
		}
	}
	if got := reg.Counter("campaign_hub_retire_failed_total").Value(); got != 0 {
		t.Errorf("campaign_hub_retire_failed_total = %d", got)
	}
	if got := reg.Counter("core_hub_taint_lost_total").Value(); got != 0 {
		t.Errorf("core_hub_taint_lost_total = %d", got)
	}
}

// TestIdempotentHubConcurrentAttempts runs two live attempts at one shard
// window against one hub — what a requeued shard and the worker that lost its
// lease but has not noticed yet look like. Both publish and poll the same
// (namespace, flow, sequence) entries. A poll that consumed its entry let one
// attempt take the other's and the loser's poll miss, which HubFailRun turns
// into a failed run; a poll that reads cannot.
//
// The attempts reach the hub through a wrapper that is not a Retirer, so
// neither retires under the other's feet (chaserd's stale attempt does not
// either: it is interrupted through Stop, and an interrupted window does not
// retire). That is the other thing pinned here: a hub that cannot retire is
// counted and costs nothing else.
func TestIdempotentHubConcurrentAttempts(t *testing.T) {
	cfg := appConfig(t, "clamr_mpi")
	cfg.Runs = 40
	cfg.Shard = &ShardRange{Lo: 8, Hi: 32}
	cfg.HubPolicy = core.HubFailRun
	cfg.HubNamespaceBase = 7000
	local := tainthub.NewLocal()
	cfg.Hub = &countingHub{inner: local}

	var wg sync.WaitGroup
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	errs := make([]error, len(regs))
	for i, reg := range regs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acfg := cfg
			acfg.Obs = reg
			_, errs[i] = Run(acfg)
		}()
	}
	wg.Wait()
	for i, reg := range regs {
		if errs[i] != nil {
			t.Errorf("attempt %d: %v", i, errs[i])
		}
		if got := reg.Counter("core_hub_taint_lost_total").Value(); got != 0 {
			t.Errorf("attempt %d: core_hub_taint_lost_total = %d", i, got)
		}
		if got := reg.Counter("campaign_hub_retire_failed_total").Value(); got != 1 {
			t.Errorf("attempt %d: campaign_hub_retire_failed_total = %d, want 1 (the wrapper cannot retire)", i, got)
		}
	}
	st := local.Stats()
	if st.Published == 0 || st.Pending != int(st.Published) {
		t.Fatalf("hub after both attempts: %+v", st)
	}
	if err := local.Retire(7000+8, 7000+32); err != nil || local.Stats().Pending != 0 {
		t.Errorf("retiring the window: %v, %+v", err, local.Stats())
	}
}
