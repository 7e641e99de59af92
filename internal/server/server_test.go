package server

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/campaign"
	"chaser/internal/obs"
)

// acceptanceSpec is the campaign the end-to-end test shards: small enough
// to finish fast, traced like the standalone robustness tests.
var acceptanceSpec = Spec{App: "kmeans", Runs: 15, Seed: 808, Bits: 1, Shards: 3, Trace: true, Parallel: 2}

func newTestServer(t *testing.T, dir string) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr:     "127.0.0.1:0",
		StoreDir: dir,
		Obs:      obs.NewRegistry(),
		Sched: SchedConfig{
			LeaseTTL:       150 * time.Millisecond,
			ExpiryInterval: 25 * time.Millisecond,
			BackoffBase:    time.Millisecond,
			Logf:           t.Logf,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestCampaignSurvivesWorkerDeathAndServerRestart is the control plane's
// acceptance test. One campaign, sharded across workers over the real HTTP
// API, survives in sequence:
//
//  1. a worker dying mid-shard with runs journaled but unreported — its
//     lease expires and the shard is re-enqueued (kill -9 + wedged-worker
//     lease expiry, in one),
//  2. a second worker resuming that shard from its journal,
//  3. chaserd itself crashing (no drain) and restarting from the WAL,
//
// and the merged summary must be bitwise identical to an uninterrupted
// single-process campaign — no run double-counted, none lost.
func TestCampaignSurvivesWorkerDeathAndServerRestart(t *testing.T) {
	app, err := apps.ByName(acceptanceSpec.App)
	if err != nil {
		t.Fatal(err)
	}
	// The uninterrupted single-process truth. The first campaign on a fresh
	// store gets hub namespace base 0, so the configs match exactly.
	baseline, err := campaign.Run(campaignConfig(acceptanceSpec.normalize(), app, 0))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	srv1 := newTestServer(t, dir)
	cl := NewClient(srv1.Addr())
	id, err := cl.Submit(acceptanceSpec)
	if err != nil {
		t.Fatal(err)
	}

	// (1) A doomed worker claims a shard, executes only part of it (runs
	// land in the journal), then goes silent: no heartbeat, no report.
	doomed, err := cl.Claim("doomed")
	if err != nil || doomed == nil {
		t.Fatalf("doomed claim: %v, %v", doomed, err)
	}
	partial := *doomed
	partial.Hi = partial.Lo + 2 // die after 2 of the shard's 5 runs
	if err := ExecuteShard(&partial, nil, nil); err != nil {
		t.Fatalf("partial shard execution: %v", err)
	}

	// The scheduler must notice the dead lease on its own.
	reg1 := srv1.Registry()
	deadline := time.Now().Add(10 * time.Second)
	for reg1.Counter("server_lease_expired_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The expiry loop counts the expiry before it requeues the shard.
	waitUntil(t, time.Second, "server_shards_requeued_total > 0 after lease expiry", func() bool {
		return reg1.Counter("server_shards_requeued_total").Value() > 0
	})

	// (2) A live worker re-claims the abandoned shard and resumes it from
	// the doomed worker's journal (same stable path). The requeue carries a
	// backoff (BackoffBase, 1ms here): a claim inside it would be handed the
	// next shard instead, so wait it out.
	time.Sleep(20 * time.Millisecond)
	second, err := cl.Claim("second")
	if err != nil || second == nil {
		t.Fatalf("second claim: %v, %v", second, err)
	}
	if second.Shard != doomed.Shard || second.Journal != doomed.Journal {
		t.Fatalf("re-claim got shard %d (%s), want the abandoned shard %d (%s)",
			second.Shard, second.Journal, doomed.Shard, doomed.Journal)
	}
	// A live worker heartbeats while it executes: under the race detector
	// the shard can take as long as the 150 ms lease.
	beating := make(chan struct{})
	beats := make(chan struct{})
	go func() {
		defer close(beats)
		for {
			select {
			case <-beating:
				return
			case <-time.After(30 * time.Millisecond):
				cl.Heartbeat(second.Token)
			}
		}
	}()
	err = ExecuteShard(second, nil, nil)
	close(beating)
	<-beats
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Complete(second.Token); err != nil {
		t.Fatal(err)
	}

	// (3) chaserd crashes mid-campaign — two shards still pending — and a
	// new instance resumes from the WAL on a fresh port.
	srv1.Abort()
	srv2 := newTestServer(t, dir)
	defer srv2.Abort()
	cl2 := NewClient(srv2.Addr())
	st, err := cl2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusActive || st.DoneRuns != 5 {
		t.Fatalf("recovered status %s with %d done runs, want active with 5", st.Status, st.DoneRuns)
	}

	// A worker fleet finishes the campaign over the restarted server.
	w := NewWorker(WorkerConfig{
		Name:         "finisher",
		Control:      NewClient(srv2.Addr()),
		PollInterval: 5 * time.Millisecond,
		Logf:         t.Logf,
	})
	w.Start()
	defer w.Stop()

	doc, err := cl2.WaitSummary(id)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(doc.Summary), wantJSON) {
		t.Errorf("merged summary diverges from uninterrupted baseline:\n%s\n%s", doc.Summary, wantJSON)
	}
	if doc.Report != baseline.Report() {
		t.Errorf("merged report diverges:\n%q\n%q", doc.Report, baseline.Report())
	}
}

// TestPoolWorkersCompleteCampaign is the happy path over LocalControl: a
// campaign sharded across two in-process workers produces the baseline
// summary, exercising Submit → Claim → Execute → Complete → merge without
// HTTP in the loop.
func TestPoolWorkersCompleteCampaign(t *testing.T) {
	app, err := apps.ByName(acceptanceSpec.App)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := campaign.Run(campaignConfig(acceptanceSpec.normalize(), app, 0))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Addr:     "127.0.0.1:0",
		StoreDir: t.TempDir(),
		Sched:    SchedConfig{ExpiryInterval: time.Hour, Logf: t.Logf},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{
			Control:      LocalControl{Sched: srv.Scheduler()},
			PollInterval: 5 * time.Millisecond,
			Logf:         t.Logf,
		})
		w.Start()
		defer w.Stop()
	}
	id, err := srv.Scheduler().Submit(acceptanceSpec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.Scheduler().Done(id):
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not complete")
	}
	raw, err := srv.store.ReadSummary(id)
	if err != nil || raw == nil {
		t.Fatalf("stored summary: %q, %v", raw, err)
	}
	var doc struct {
		Report  string          `json:"report"`
		Summary json.RawMessage `json:"summary"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(baseline)
	if !bytes.Equal(bytes.TrimSpace(doc.Summary), wantJSON) {
		t.Errorf("merged summary diverges from baseline")
	}
	if doc.Report != baseline.Report() {
		t.Errorf("merged report diverges from baseline")
	}
}
