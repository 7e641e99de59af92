package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"chaser/internal/isa"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
)

// faultyHub is a Local behind its fault modes: publishErr applies every
// publish and then reports it failed (an ack lost for longer than the client
// retries), dropPublishes acknowledges every publish and stores nothing (the
// lost cross-rank taint of ROADMAP's divergence (a)), failPublish refuses the
// publishes whose 1-based ordinal it holds and applies none of them, and
// flipPoll answers every poll with one bit of the first mask flipped — not
// what the sender published, so a receiver that applies it shows whose masks
// it trusts (lastMasks returns both).
type faultyHub struct {
	*tainthub.Local
	publishErr    bool
	dropPublishes bool
	failPublish   map[int64]bool
	flipPoll      bool
	publishes     atomic.Int64
	polls         atomic.Int64

	mu                 sync.Mutex // the hub may sit behind a server's goroutines
	published, replied []uint8
}

// lastMasks returns the masks of the last publish and of the last poll reply.
func (h *faultyHub) lastMasks() (published, replied []uint8) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.published, h.replied
}

func (h *faultyHub) Publish(id tainthub.ReqID, k tainthub.Key, seq uint64, masks []uint8) error {
	if n := h.publishes.Add(1); h.failPublish[n] {
		return fmt.Errorf("publish %d refused", n)
	}
	if h.dropPublishes {
		return nil
	}
	h.mu.Lock()
	h.published = append([]uint8(nil), masks...)
	h.mu.Unlock()
	if err := h.Local.Publish(id, k, seq, masks); err != nil {
		return err
	}
	if h.publishErr {
		return fmt.Errorf("ack lost")
	}
	return nil
}

func (h *faultyHub) Poll(id tainthub.ReqID, k tainthub.Key, seq uint64) ([]uint8, bool, error) {
	h.polls.Add(1)
	masks, ok, err := h.Local.Poll(id, k, seq)
	if h.flipPoll && ok {
		masks = append([]uint8(nil), masks...)
		masks[0] ^= 0x01
		h.mu.Lock()
		h.replied = masks
		h.mu.Unlock()
	}
	return masks, ok, err
}

// TestHubTrafficSupersetRule: a publish the hub applied but reported failed
// must still be polled — the flow-sequence is recorded before the publish is
// attempted, not after it succeeds — so the taint crosses, and the failed
// call is the only degradation.
func TestHubTrafficSupersetRule(t *testing.T) {
	hub := &faultyHub{Local: tainthub.NewLocal(), publishErr: true}
	reg := obs.NewRegistry()
	res, err := Run(tracedCrossConfig(t, hub, HubDegrade, reg))
	if err != nil {
		t.Fatal(err)
	}
	if got := hub.polls.Load(); got != 1 {
		t.Errorf("%d polls reached the hub, want the one for the applied publish", got)
	}
	if !res.Trace.Propagated() || res.Trace.Reads(1) == 0 {
		t.Error("the applied publish's taint did not reach rank 1")
	}
	if got := reg.Counter("core_hub_degraded_total").Value(); got != 1 {
		t.Errorf("core_hub_degraded_total = %d, want 1", got)
	}
	if got := reg.Counter("core_hub_taint_lost_total").Value(); got != 0 {
		t.Errorf("core_hub_taint_lost_total = %d, want 0", got)
	}
}

// TestHubTaintLostDetected: an acknowledged publish whose poll finds nothing
// is counted, reported as an event naming the flow, and fails the run under
// HubFailRun; under HubDegrade the receiver runs on untainted.
func TestHubTaintLostDetected(t *testing.T) {
	reg := obs.NewRegistry()
	sink := obs.NewSink(64)
	cfg := tracedCrossConfig(t, &faultyHub{Local: tainthub.NewLocal(), dropPublishes: true}, HubDegrade, reg)
	cfg.Events = sink
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("degrade policy failed the run: %v", err)
	}
	if res.Trace.Propagated() {
		t.Error("taint crossed ranks through a hub that stored nothing")
	}
	if got := reg.Counter("core_hub_taint_lost_total").Value(); got != 1 {
		t.Errorf("core_hub_taint_lost_total = %d, want 1", got)
	}
	if got := reg.Counter("core_hub_degraded_total").Value(); got != 0 {
		t.Errorf("core_hub_degraded_total = %d: no hub call failed", got)
	}
	events, _ := sink.Since(0, 64)
	var lost []obs.Event
	for _, ev := range events {
		if ev.Type == "hub_taint_lost" {
			lost = append(lost, ev)
		}
	}
	if len(lost) != 1 || lost[0].Rank != 1 || lost[0].Msg != "0->1 tag 3 seq 0" {
		t.Errorf("hub_taint_lost events = %+v, want one for 0->1 tag 3 seq 0 on rank 1", lost)
	}

	_, err = Run(tracedCrossConfig(t, &faultyHub{Local: tainthub.NewLocal(), dropPublishes: true}, HubFailRun, nil))
	if err == nil || !strings.Contains(err.Error(), "lost the published taint") {
		t.Errorf("HubFailRun error = %v, want the lost taint", err)
	}
}

// TestHubTrafficForkedTwinOnSharedHub: a forked run starts with nothing
// recorded as published (its prefix ran on a private hub and published
// nothing), so on a shared hub it must poll exactly what its from-scratch
// twin polls, and agree with it bitwise.
func TestHubTrafficForkedTwinOnSharedHub(t *testing.T) {
	prog := crossProg(t)
	hub := &faultyHub{Local: tainthub.NewLocal()}
	for i, site := range []ForkSite{{Rank: 0, N: 1}, {Rank: 0, N: 3}, {Rank: 0, N: 8}} {
		cfg := RunConfig{
			Prog: prog, WorldSize: 2,
			Spec: &Spec{
				Target: "cross_app", Ops: []isa.Op{isa.OpFAdd},
				TargetRank: site.Rank,
				Cond:       Deterministic{N: site.N},
				Bits:       2, Trace: true, Seed: 23,
			},
		}
		label := fmt.Sprintf("site=%+v", site)
		ws, err := PrefixRun(cfg, site)
		if err != nil {
			t.Fatalf("%s: prefix: %v", label, err)
		}
		before := hub.polls.Load()
		cfg.Hub = tainthub.WithNamespace(hub, 2*i)
		scratch, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: scratch: %v", label, err)
		}
		scratchPolls := hub.polls.Load() - before
		cfg.Hub = tainthub.WithNamespace(hub, 2*i+1)
		forked, err := RunForked(cfg, ws)
		if err != nil {
			t.Fatalf("%s: forked: %v", label, err)
		}
		forkedPolls := hub.polls.Load() - before - scratchPolls
		compareRuns(t, label, scratch, forked)
		if !forked.Trace.Propagated() {
			t.Errorf("%s: the fault did not cross ranks", label)
		}
		if scratchPolls != 1 || forkedPolls != 1 {
			t.Errorf("%s: %d polls from scratch, %d forked, want 1 each", label, scratchPolls, forkedPolls)
		}
	}
	// Every poll hit, and a poll leaves its entry for whoever minted the
	// namespaces to retire.
	if st := hub.Stats(); st.Polls != st.Hits || st.Pending != 6 {
		t.Errorf("shared hub: %+v", st)
	}
	if err := hub.Retire(0, 6); err != nil || hub.Stats().Pending != 0 {
		t.Errorf("retire: %v, %+v", err, hub.Stats())
	}
}
