package server

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"chaser/internal/memtest"
	"chaser/internal/obs"
)

// testSched builds a scheduler over a fresh store with test-friendly
// timings: instant backoff, manual expiry (huge ExpiryInterval — tests call
// expireOnce directly for determinism).
func testSched(t *testing.T, mut func(*SchedConfig)) (*Scheduler, *obs.Registry) {
	t.Helper()
	store, recs, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := SchedConfig{
		LeaseTTL:        100 * time.Millisecond,
		ExpiryInterval:  time.Hour,
		MaxShardRetries: 3,
		BackoffBase:     time.Nanosecond,
		Obs:             reg,
		Logf:            t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	sched, err := NewScheduler(store, recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Stop(); store.Close() })
	return sched, reg
}

func submitT(t *testing.T, s *Scheduler, sp Spec) string {
	t.Helper()
	id, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

var testSpec = Spec{App: "kmeans", Runs: 10, Seed: 7, Shards: 2}

// TestLeaseExpiryRequeuesShard claims a shard, lets the lease die without
// heartbeats, and expires it: the shard must return to the queue under the
// same journal path, the old token must be disowned, and
// server_lease_expired_total / server_shards_requeued_total must count it.
func TestLeaseExpiryRequeuesShard(t *testing.T) {
	sched, reg := testSched(t, nil)
	submitT(t, sched, testSpec)
	a, err := sched.Claim("w1")
	if err != nil || a == nil {
		t.Fatalf("claim: %v, %v", a, err)
	}
	sched.expireOnce(time.Now().Add(time.Second)) // past the 100ms TTL
	if got := reg.Counter("server_lease_expired_total").Value(); got != 1 {
		t.Errorf("server_lease_expired_total = %d, want 1", got)
	}
	if got := reg.Counter("server_shards_requeued_total").Value(); got != 1 {
		t.Errorf("server_shards_requeued_total = %d, want 1", got)
	}
	if err := sched.Heartbeat(a.Token); !errors.Is(err, ErrLeaseUnknown) {
		t.Errorf("heartbeat on expired lease: %v, want ErrLeaseUnknown", err)
	}
	if err := sched.Complete(a.Token); !errors.Is(err, ErrLeaseUnknown) {
		t.Errorf("complete on expired lease: %v, want ErrLeaseUnknown", err)
	}
	// The shard comes back (backoff is a nanosecond here) with the same
	// journal path — that stability is what makes the retry incremental.
	time.Sleep(time.Millisecond)
	b, err := sched.Claim("w2")
	if err != nil || b == nil {
		t.Fatalf("re-claim: %v, %v", b, err)
	}
	if b.Shard != a.Shard || b.Journal != a.Journal {
		t.Errorf("re-claimed shard %d journal %s, want shard %d journal %s",
			b.Shard, b.Journal, a.Shard, a.Journal)
	}
	if b.Token == a.Token {
		t.Error("re-claim reused the expired lease token")
	}
}

// TestHeartbeatKeepsLeaseAlive: a heartbeat resets the expiry clock, so a
// slow-but-alive worker survives sweeps that would have killed its lease.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	sched, reg := testSched(t, nil)
	submitT(t, sched, testSpec)
	a, _ := sched.Claim("w1")
	if err := sched.Heartbeat(a.Token); err != nil {
		t.Fatal(err)
	}
	sched.expireOnce(time.Now().Add(50 * time.Millisecond)) // within renewed TTL
	if got := reg.Counter("server_lease_expired_total").Value(); got != 0 {
		t.Errorf("lease expired despite heartbeat (count %d)", got)
	}
	if err := sched.Complete(a.Token); err != nil {
		t.Errorf("complete after heartbeat: %v", err)
	}
}

// TestFailBackoffGatesReclaim: a failed shard is not immediately claimable —
// exponential backoff holds it back, and the backoff grows per retry.
func TestFailBackoffGatesReclaim(t *testing.T) {
	sched, _ := testSched(t, func(c *SchedConfig) { c.BackoffBase = time.Hour })
	submitT(t, sched, Spec{App: "kmeans", Runs: 5, Seed: 7, Shards: 1})
	a, _ := sched.Claim("w1")
	if err := sched.Fail(a.Token, "boom"); err != nil {
		t.Fatal(err)
	}
	if b, _ := sched.Claim("w1"); b != nil {
		t.Errorf("claimed shard %d during backoff window", b.Shard)
	}
}

// TestPoisonShardQuarantine: a shard that fails on every attempt exhausts
// its retry budget, is quarantined, and fails its campaign — instead of
// cycling through the worker fleet forever.
func TestPoisonShardQuarantine(t *testing.T) {
	sched, reg := testSched(t, func(c *SchedConfig) { c.MaxShardRetries = 2 })
	id := submitT(t, sched, Spec{App: "kmeans", Runs: 5, Seed: 7, Shards: 1})
	for attempt := 0; ; attempt++ {
		if attempt > 10 {
			t.Fatal("campaign never reached a terminal state")
		}
		a, err := sched.Claim("w1")
		if err != nil {
			t.Fatal(err)
		}
		if a == nil {
			st := sched.Status(id)
			if st.Status == StatusFailed {
				break
			}
			time.Sleep(time.Millisecond) // nanosecond backoff still pending
			continue
		}
		if err := sched.Fail(a.Token, "panic: poisoned input"); err != nil {
			t.Fatal(err)
		}
	}
	st := sched.Status(id)
	if st.Status != StatusFailed || !strings.Contains(st.Err, "quarantined") {
		t.Errorf("status %q err %q, want failed with quarantine", st.Status, st.Err)
	}
	if st.Shards[0].State != "quarantined" {
		t.Errorf("shard state %q, want quarantined", st.Shards[0].State)
	}
	if got := reg.Counter("server_shards_quarantined_total").Value(); got != 1 {
		t.Errorf("server_shards_quarantined_total = %d, want 1", got)
	}
	select {
	case <-sched.Done(id):
	default:
		t.Error("done channel not closed for failed campaign")
	}
}

// TestWorkerPanicIsBoundedRetry runs a real Worker whose shard execution
// panics every time (a poison shard): the panic must be converted into Fail
// reports, retried the configured number of times, then quarantined — and
// the worker itself must survive every attempt.
func TestWorkerPanicIsBoundedRetry(t *testing.T) {
	sched, reg := testSched(t, func(c *SchedConfig) { c.MaxShardRetries = 2 })
	id := submitT(t, sched, Spec{App: "kmeans", Runs: 5, Seed: 7, Shards: 1})
	attempts := 0
	w := NewWorker(WorkerConfig{
		Name:         "panicky",
		Control:      LocalControl{Sched: sched},
		PollInterval: time.Millisecond,
		Logf:         t.Logf,
		RunShard: func(a *Assignment) error {
			attempts++
			panic("deterministic crash in the engine")
		},
	})
	w.Start()
	defer w.Stop()
	select {
	case <-sched.Done(id):
	case <-time.After(10 * time.Second):
		t.Fatal("campaign never reached a terminal state")
	}
	st := sched.Status(id)
	if st.Status != StatusFailed {
		t.Errorf("status %q, want failed", st.Status)
	}
	if !strings.Contains(st.Err, "panic") {
		t.Errorf("campaign error %q does not surface the panic", st.Err)
	}
	if attempts != 3 { // initial + MaxShardRetries
		t.Errorf("shard attempted %d times, want 3", attempts)
	}
	if got := reg.Counter("server_shards_quarantined_total").Value(); got != 1 {
		t.Errorf("server_shards_quarantined_total = %d, want 1", got)
	}
}

// TestWorkerAbandonsDisownedLease: when the scheduler no longer recognizes
// a worker's lease mid-run (expiry, chaserd restart), the worker must
// abandon the shard — reporting neither success nor failure — so the
// shard's new owner is undisturbed.
func TestWorkerAbandonsDisownedLease(t *testing.T) {
	sched, _ := testSched(t, func(c *SchedConfig) { c.LeaseTTL = 50 * time.Millisecond })
	id := submitT(t, sched, Spec{App: "kmeans", Runs: 5, Seed: 7, Shards: 1})
	reg := obs.NewRegistry()
	block := make(chan struct{})
	w := NewWorker(WorkerConfig{
		Name:         "wedged",
		Control:      LocalControl{Sched: sched},
		PollInterval: time.Millisecond,
		Obs:          reg,
		Logf:         t.Logf,
		RunShard: func(a *Assignment) error {
			sched.expireOnce(time.Now().Add(time.Minute)) // void the lease under it
			<-block                                       // wedge until the heartbeat notices
			return nil
		},
	})
	w.Start()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("worker_shards_abandoned_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never noticed the disowned lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(block)
	w.Stop()
	if got := reg.Counter("worker_shards_completed_total").Value(); got != 0 {
		t.Errorf("worker reported completion on a disowned lease (count %d)", got)
	}
	st := sched.Status(id)
	if st.Shards[0].State == "done" {
		t.Error("shard marked done by a disowned worker")
	}
}

// TestSchedulerRestartRecoversState replays the WAL into a fresh scheduler:
// done shards stay done, in-flight work returns to pending (counted as
// requeued), terminal campaigns stay terminal, and new submissions never
// collide with recovered IDs or hub namespace windows.
func TestSchedulerRestartRecoversState(t *testing.T) {
	dir := t.TempDir()
	store, recs, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := SchedConfig{
		LeaseTTL: 100 * time.Millisecond, ExpiryInterval: time.Hour,
		BackoffBase: time.Nanosecond, Obs: reg, Logf: t.Logf,
	}
	s1, err := NewScheduler(store, recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := submitT(t, s1, testSpec) // 2 shards
	a, _ := s1.Claim("w1")
	if err := s1.Complete(a.Token); err != nil {
		t.Fatal(err)
	}
	b, _ := s1.Claim("w1")
	if err := s1.Fail(b.Token, "interrupted"); err != nil { // leaves retries=1, pending
		t.Fatal(err)
	}
	s1.Stop()
	store.Close() // crash: leases and memory are gone, the WAL remains

	store2, recs2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	cfg.Obs = reg2
	s2, err := NewScheduler(store2, recs2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s2.Stop(); store2.Close() }()
	st := s2.Status(id)
	if st == nil || st.Status != StatusActive {
		t.Fatalf("recovered campaign status = %+v, want active", st)
	}
	if st.Shards[a.Shard].State != "done" {
		t.Errorf("recovered shard %d state %q, want done", a.Shard, st.Shards[a.Shard].State)
	}
	if st.Shards[b.Shard].State != "pending" || st.Shards[b.Shard].Retries != 1 {
		t.Errorf("recovered shard %d = %+v, want pending with 1 retry", b.Shard, st.Shards[b.Shard])
	}
	if got := reg2.Counter("server_shards_requeued_total").Value(); got != 1 {
		t.Errorf("server_shards_requeued_total after restart = %d, want 1", got)
	}
	// A fresh submission must not collide with the recovered campaign.
	id2 := submitT(t, s2, testSpec)
	if id2 == id {
		t.Errorf("recovered scheduler reissued campaign ID %s", id)
	}
	if n := s2.ActiveByTenant()["default"]; n != 2 {
		t.Errorf("active campaigns for default tenant = %d, want 2", n)
	}
}

// TestSchedulerHeapPerCompletedCampaign pins what a terminal campaign leaves
// on a running scheduler's heap: its state and its log records (and, in this
// process, the blocks its fault sites added to the worker's translation
// cache) — about 1.1 KiB — not its merged summary — two histograms, the per-op map and the report text used to
// stay pinned per campaign, read by nobody (the summary endpoint serves the
// file Store.WriteSummary wrote), and made a service's resident set follow
// the campaigns it had completed.
func TestSchedulerHeapPerCompletedCampaign(t *testing.T) {
	sched, _ := testSched(t, func(c *SchedConfig) { c.Logf = func(string, ...any) {} })
	w := quietWorker(nil)
	live := memtest.Live
	complete := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			id := submitT(t, sched, Spec{App: "matvec", Runs: 16, Seed: int64(i), Shards: 1, Trace: true, Parallel: 1})
			a, err := sched.Claim("w")
			if err != nil || a == nil {
				t.Fatalf("claim: %v %v", a, err)
			}
			if err := w.runShard(a, nil); err != nil {
				t.Fatal(err)
			}
			if err := sched.Complete(a.Token); err != nil {
				t.Fatal(err)
			}
			if st := sched.Status(id); st == nil || st.Status != StatusComplete {
				t.Fatalf("campaign %s: %+v", id, st)
			}
		}
	}
	complete(50) // the worker's baseline, its spine and the caches are warm
	before := live()
	const campaigns = 500
	complete(campaigns)
	grown := int64(live()) - int64(before)
	runtime.KeepAlive(w) // or its baseline is collected before the second reading
	t.Logf("heap grew %d B over %d completed campaigns: %d B each", grown, campaigns, grown/campaigns)
	if grown > campaigns*2<<10 {
		t.Errorf("a completed campaign keeps %d B on the scheduler's heap, want at most 2 KiB", grown/campaigns)
	}
}

// TestClaimScansOnlyOpenCampaigns completes 2,000 campaigns: a claim then
// visits none of them — the scan holds only campaigns that are not terminal
// — while List still returns every campaign in submission order.
func TestClaimScansOnlyOpenCampaigns(t *testing.T) {
	sched, _ := testSched(t, func(c *SchedConfig) { c.Logf = func(string, ...any) {} })
	w := quietWorker(nil)
	const completed = 2000
	ids := make([]string, 0, completed+1)
	for i := 0; i < completed; i++ {
		ids = append(ids, submitT(t, sched, Spec{App: "matvec", Runs: 1, Seed: int64(i), Shards: 1, Parallel: 1}))
		a, err := sched.Claim("w")
		if err != nil || a == nil {
			t.Fatalf("claim %d: %v %v", i, a, err)
		}
		if err := w.runShard(a, nil); err != nil {
			t.Fatal(err)
		}
		if err := sched.Complete(a.Token); err != nil {
			t.Fatal(err)
		}
	}
	last := submitT(t, sched, Spec{App: "matvec", Runs: 2, Seed: 1, Shards: 2, Parallel: 1})
	ids = append(ids, last)

	sched.mu.Lock()
	open := slices.Clone(sched.open)
	sched.mu.Unlock()
	if len(open) != 1 || open[0].id != last {
		names := make([]string, len(open))
		for i, c := range open {
			names[i] = c.id + "/" + c.status
		}
		t.Fatalf("after %d completed campaigns a claim scans %v, want only %s", completed, names, last)
	}
	for shard := 0; shard < 2; shard++ {
		if a, err := sched.Claim("w"); err != nil || a == nil || a.Campaign != last || a.Shard != shard {
			t.Fatalf("claim: %+v %v, want %s shard %d", a, err, last, shard)
		}
	}
	if a, err := sched.Claim("w"); err != nil || a != nil {
		t.Fatalf("claim with every shard leased: %+v %v", a, err)
	}
	list := sched.List("")
	if len(list) != len(ids) {
		t.Fatalf("List returned %d campaigns, want %d", len(list), len(ids))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Fatalf("List[%d] = %s, want %s (submission order)", i, st.ID, ids[i])
		}
	}
	if got := sched.ActiveByTenant(); got[list[completed].Tenant] != 1 || len(got) != 1 {
		t.Errorf("ActiveByTenant = %v, want one active campaign", got)
	}
}
