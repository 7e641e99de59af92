package campaign

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
)

// countingHub counts the calls that reach the hub beneath it: what a
// campaign's hooks still cost a shared TaintHub.
type countingHub struct {
	inner                  tainthub.Hub
	publishes, polls, hits atomic.Int64
}

func (h *countingHub) Publish(id tainthub.ReqID, k tainthub.Key, seq uint64, masks []uint8) error {
	h.publishes.Add(1)
	return h.inner.Publish(id, k, seq, masks)
}

func (h *countingHub) Poll(id tainthub.ReqID, k tainthub.Key, seq uint64) ([]uint8, bool, error) {
	h.polls.Add(1)
	masks, ok, err := h.inner.Poll(id, k, seq)
	if ok {
		h.hits.Add(1)
	}
	return masks, ok, err
}

func (h *countingHub) Stats() tainthub.Stats { return h.inner.Stats() }

// ringConfig is a campaign against the token-ring example guest: every
// message of a faulty run can carry the token's taint to the next rank.
func ringConfig(t *testing.T) Config {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "guest_programs", "ring.gl"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.ParseAndCompile("ring", string(src))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Name: "ring", Prog: prog, WorldSize: 4,
		Ops: []isa.Op{isa.OpLd, isa.OpSt}, TargetRank: 0,
		Runs: 12, Bits: 1, Seed: 1207, Trace: true, Parallel: 2,
		KeepRunOutcomes: true,
	}
}

// TestHubTrafficProportionalToTaint pins what a campaign costs a shared
// TaintHub: the hub receives every publish, and the only polls that reach it
// are the receives of published messages, every one of them a hit — a clean
// receive costs no hub call. The results are, run by run, those of the same
// campaign on private hubs, forked or from scratch.
func TestHubTrafficProportionalToTaint(t *testing.T) {
	configs := map[string]Config{
		"clamr_mpi": appConfig(t, "clamr_mpi"),
		"matvec":    appConfig(t, "matvec"),
		"ring":      ringConfig(t),
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cfg.Runs = 24
			private, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			local := tainthub.NewLocal()
			for i, noFork := range []bool{false, true} {
				hub := &countingHub{inner: local}
				reg := obs.NewRegistry()
				scfg := cfg
				scfg.Hub, scfg.Obs, scfg.NoFork = hub, reg, noFork
				scfg.HubNamespaceBase = i * cfg.Runs
				shared, err := Run(scfg)
				if err != nil {
					t.Fatalf("NoFork=%v: %v", noFork, err)
				}
				sameCampaign(t, private, shared)

				publishes, polls, hits := hub.publishes.Load(), hub.polls.Load(), hub.hits.Load()
				if publishes == 0 {
					t.Fatalf("NoFork=%v: no run published: the campaign does not exercise the hub", noFork)
				}
				if polls != hits {
					t.Errorf("NoFork=%v: %d polls reached the hub, only %d hit: a clean receive cost a hub call",
						noFork, polls, hits)
				}
				// A world a fault ends early could leave a published message
				// unreceived; none of these seeds does.
				if polls != publishes {
					t.Errorf("NoFork=%v: %d polls for %d publishes", noFork, polls, publishes)
				}
				answered := reg.Counter("core_hub_polls_local_total").Value()
				t.Logf("NoFork=%v: %d publishes, %d polls, %d receives answered locally", noFork, publishes, polls, answered)
				if answered == 0 {
					t.Errorf("NoFork=%v: no receive was answered without the hub", noFork)
				}
				for _, c := range []string{"core_hub_taint_lost_total", "core_hub_degraded_total"} {
					if got := reg.Counter(c).Value(); got != 0 {
						t.Errorf("NoFork=%v: %s = %d", noFork, c, got)
					}
				}
			}
			if st := local.Stats(); st.Polls != st.Hits {
				t.Errorf("shared hub saw %d polls, %d hits", st.Polls, st.Hits)
			}
		})
	}
}

// TestHubTaintLostStress loops clamr_mpi campaigns through a durable hub
// behind its TCP server, two at a time as chaserd's workers would, and
// demands what ROADMAP's divergence (a) says sometimes fails: no published
// taint is lost on the way to its receiver, and every campaign counts the
// propagated runs of its private-hub twin.
func TestHubTaintLostStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	app, err := apps.ByName("clamr_mpi")
	if err != nil {
		t.Fatal(err)
	}
	durable, err := tainthub.OpenDurable(filepath.Join(t.TempDir(), "hub.wal"), tainthub.DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	srv, err := tainthub.NewServer(durable, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const campaigns, runs = 12, 100
	reg := obs.NewRegistry()
	// one returns the propagated runs of campaign i on private hubs and
	// through the served hub.
	one := func(i int) (twin, service int, err error) {
		cfg := Config{
			Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
			Ops: app.DefaultOps, TargetRank: app.TargetRank,
			Runs: runs, Bits: 1, Seed: int64(9000 + i), Trace: true, Parallel: 2,
		}
		private, err := Run(cfg)
		if err != nil {
			return 0, 0, err
		}
		client, err := tainthub.Dial(srv.Addr())
		if err != nil {
			return 0, 0, err
		}
		defer client.Close()
		cfg.Hub, cfg.Obs = client, reg
		cfg.HubNamespaceBase = i * runs
		served, err := Run(cfg)
		if err != nil {
			return 0, 0, err
		}
		return private.PropagatedRuns, served.PropagatedRuns, nil
	}
	todo := make(chan int, campaigns)
	for i := 0; i < campaigns; i++ {
		todo <- i
	}
	close(todo)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range todo {
				twin, service, err := one(i)
				switch {
				case err != nil:
					t.Errorf("seed %d: %v", 9000+i, err)
				case twin != service:
					t.Errorf("seed %d: %d propagated runs through the served hub, %d on private hubs",
						9000+i, service, twin)
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range []string{"core_hub_taint_lost_total", "core_hub_degraded_total"} {
		if got := reg.Counter(c).Value(); got != 0 {
			t.Errorf("%s = %d over %d campaigns", c, got, campaigns)
		}
	}
	if got := reg.Counter("core_hub_polls_local_total").Value(); got == 0 {
		t.Error("no receive was answered without the hub")
	}
}
