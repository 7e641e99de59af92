package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/campaign"
	"chaser/internal/obs"
	"chaser/internal/wal"
)

// TestStoreStartupCompaction: reopening compacts the finished campaign down
// to its campaign + terminal records, and the active campaign's history
// survives untouched.
func TestStoreStartupCompaction(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seq := []walRecord{
		{T: "campaign", C: "c000001"},
		{T: "done", C: "c000001", Shard: 0},
		{T: "done", C: "c000001", Shard: 1},
		{T: "done", C: "c000001", Shard: 2},
		{T: "complete", C: "c000001"},
		{T: "campaign", C: "c000002"},
		{T: "done", C: "c000002", Shard: 0},
	}
	for _, rec := range seq {
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	before, err := os.Stat(store.walPath())
	if err != nil {
		t.Fatal(err)
	}

	store2, recs, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []walRecord{
		{T: "campaign", C: "c000001"},
		{T: "complete", C: "c000001"},
		{T: "campaign", C: "c000002"},
		{T: "done", C: "c000002", Shard: 0},
	}
	if len(recs) != len(want) {
		t.Fatalf("compacted log has %d records, want %d: %+v", len(recs), len(want), recs)
	}
	for i := range want {
		if recs[i].T != want[i].T || recs[i].C != want[i].C || recs[i].Shard != want[i].Shard {
			t.Errorf("compacted record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
	if after, err := os.Stat(store.walPath()); err != nil || after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the log: %d -> %v (%v)", before.Size(), after, err)
	}
	// The compacted log takes appends, and replays identically on the next
	// open (compaction is idempotent).
	if err := store2.Append(walRecord{T: "done", C: "c000002", Shard: 1}); err != nil {
		t.Fatal(err)
	}
	store2.Close()
	store3, recs3, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	if len(recs3) != len(want)+1 || recs3[len(want)].Shard != 1 {
		t.Errorf("re-replay of compacted log: %+v, want the %d compacted records and the append", recs3, len(want))
	}
}

// TestCompactionCrashRecovery: a crash before the rewritten log is renamed
// into place leaves it as a temp file beside the intact old log; the next
// open must replay the old log, lose nothing, and remove the debris.
func TestCompactionCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []walRecord{{T: "campaign", C: "c000001"}, {T: "done", C: "c000001"}} {
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	tmp := store.walPath() + ".tmp"
	if err := os.WriteFile(tmp, []byte("half a rewritten log"), 0o644); err != nil {
		t.Fatal(err)
	}
	store2, recs, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if len(recs) != 2 || recs[0].T != "campaign" || recs[1].T != "done" {
		t.Fatalf("recovered %+v, want the 2 records of the old log", recs)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("leftover temp file survived the open: %v", err)
	}
}

// TestFencerDoublePromotionRace: two nodes racing for an expired lease must
// produce exactly one winner per round, at a strictly higher epoch each
// time — the flock-serialized read-modify-write is the whole guarantee.
func TestFencerDoublePromotionRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fence")
	const ttl = 30 * time.Millisecond
	a := NewFencer(path, "A", ttl, nil)
	b := NewFencer(path, "B", ttl, nil)
	var lastEpoch uint64
	for round := 0; round < 8; round++ {
		type res struct {
			epoch uint64
			ok    bool
		}
		results := make([]res, 2)
		var wg sync.WaitGroup
		for i, f := range []*Fencer{a, b} {
			wg.Add(1)
			go func(i int, f *Fencer) {
				defer wg.Done()
				e, ok, _, err := f.TryAcquire()
				if err != nil {
					t.Errorf("round %d: acquire: %v", round, err)
				}
				results[i] = res{e, ok}
			}(i, f)
		}
		wg.Wait()
		winners := 0
		var won uint64
		for _, r := range results {
			if r.ok {
				winners++
				won = r.epoch
			}
		}
		if winners != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1", round, winners)
		}
		if won <= lastEpoch {
			t.Fatalf("round %d: epoch %d not above previous %d", round, won, lastEpoch)
		}
		lastEpoch = won
		time.Sleep(ttl + 10*time.Millisecond) // let the lease expire
	}
	if a.MaxSeen() < lastEpoch-1 || b.MaxSeen() < lastEpoch-1 {
		t.Errorf("maxSeen did not track the races: A=%d B=%d last=%d", a.MaxSeen(), b.MaxSeen(), lastEpoch)
	}
}

// TestDeposedLeaderWritesAllFenced is the zero-stale-writes guarantee in
// miniature: once a new leader claims the fence, every append the deposed
// leader attempts fails with ErrFenced, none reaches the log, and the
// rejection count matches the attempt count exactly.
func TestDeposedLeaderWritesAllFenced(t *testing.T) {
	dir := t.TempDir()
	fencePath := filepath.Join(dir, "fence")
	const ttl = 50 * time.Millisecond
	a := NewFencer(fencePath, "A", ttl, nil)
	epochA, ok, _, err := a.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("A acquire: ok=%v err=%v", ok, err)
	}
	store, _, err := OpenStore(filepath.Join(dir, "a"), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.SetEpoch(epochA)
	fenced := 0
	store.SetGuard(func() error {
		if err := a.Validate(); err != nil {
			fenced++
			return err
		}
		return nil
	})
	if err := store.Append(walRecord{T: "campaign", C: "c000001"}); err != nil {
		t.Fatalf("append under a live lease: %v", err)
	}

	// A goes silent past its TTL; B takes over at a higher epoch.
	time.Sleep(ttl + 20*time.Millisecond)
	b := NewFencer(fencePath, "B", ttl, nil)
	epochB, ok, prev, err := b.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("B acquire: ok=%v err=%v", ok, err)
	}
	if epochB <= epochA || prev.Holder != "A" {
		t.Fatalf("B claimed epoch %d superseding %+v, want epoch > %d from A", epochB, prev, epochA)
	}

	// Deposed-but-alive A keeps trying to write: all fenced, zero bytes.
	seqBefore := store.Seq()
	const k = 5
	for i := 0; i < k; i++ {
		err := store.Append(walRecord{T: "done", C: "c000001", Shard: i})
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("deposed append %d: %v, want ErrFenced", i, err)
		}
	}
	if fenced != k {
		t.Errorf("fenced rejections = %d, want %d (one per attempt)", fenced, k)
	}
	if got := store.Seq(); got != seqBefore {
		t.Errorf("deposed appends advanced the log %d -> %d; want none accepted", seqBefore, got)
	}
	if a.Epoch() != 0 {
		t.Errorf("A still believes it holds epoch %d after deposition", a.Epoch())
	}
}

// TestDeposedLeaderCannotReachSharedLog: an HA pair shares one store
// directory, and the fence on the log itself is the rename every open
// makes. Leader A, stalled past its lease, still holds a descriptor on the
// log it opened. After B acquires the fence and opens the same directory,
// neither A's late append nor the truncate that repairs A's own short
// write may reach B's log: a fresh open replays exactly B's records.
func TestDeposedLeaderCannotReachSharedLog(t *testing.T) {
	dir := t.TempDir()
	fencePath := filepath.Join(dir, "fence")
	storeDir := filepath.Join(dir, "store")
	const ttl = 50 * time.Millisecond
	a := NewFencer(fencePath, "A", ttl, nil)
	epochA, ok, _, err := a.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("A acquire: ok=%v err=%v", ok, err)
	}
	// A's short write below sets fail for one append.
	fail := false
	storeA, _, err := OpenStore(storeDir, StoreOptions{fault: func(site string) bool { return fail && site == wal.FaultShortWrite }})
	if err != nil {
		t.Fatal(err)
	}
	defer storeA.Close()
	storeA.SetEpoch(epochA)
	storeA.SetGuard(a.Validate)
	if err := storeA.Append(walRecord{T: "done", C: "c000001", Shard: 0}); err != nil {
		t.Fatalf("append under a live lease: %v", err)
	}

	time.Sleep(ttl + 20*time.Millisecond)
	b := NewFencer(fencePath, "B", ttl, nil)
	epochB, ok, _, err := b.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("B acquire: ok=%v err=%v", ok, err)
	}
	storeB, recsB, err := OpenStore(storeDir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer storeB.Close()
	storeB.SetEpoch(epochB)
	storeB.SetGuard(b.Validate)
	if len(recsB) != 1 || recsB[0].Epoch != epochA {
		t.Fatalf("B's open replayed %+v, want A's one record", recsB)
	}
	want := append(recsB, walRecord{T: "done", C: "c000001", Shard: 1, Epoch: epochB})
	if err := storeB.Append(want[1]); err != nil {
		t.Fatal(err)
	}

	// A validated before B took over and appends late, past its guard:
	// first a short write that A repairs by truncating to its own end of
	// the log, then a whole record.
	fail = true
	if err := storeA.append(walRecord{T: "done", C: "c000001", Shard: 2, Epoch: epochA}); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("A's short write: %v, want the injected failure", err)
	}
	fail = false
	if err := storeA.append(walRecord{T: "done", C: "c000001", Shard: 3, Epoch: epochA}); err != nil {
		t.Fatalf("A's late append: %v", err)
	}

	want = append(want, walRecord{T: "done", C: "c000001", Shard: 4, Epoch: epochB})
	if err := storeB.Append(want[2]); err != nil {
		t.Fatal(err)
	}
	storeA.Close()
	storeB.Close()
	store, got, err := OpenStore(storeDir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if len(got) != len(want) {
		t.Fatalf("reopened log holds %+v, want exactly B's records %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestStandbyLeavesLeaderLogAlone: an HA standby beside a live leader on
// the same store directory holds no store and no scheduler, knows the
// leader from the fence before its first request, and leaves the leader's
// control.log untouched — same file, same size — until it promotes, when
// its own open replaces the file.
func TestStandbyLeavesLeaderLogAlone(t *testing.T) {
	base := t.TempDir()
	storeDir := filepath.Join(base, "store")
	const ttl = 200 * time.Millisecond
	mk := func(name, role string) *Server {
		srv, err := NewServer(ServerConfig{
			Addr:           "127.0.0.1:0",
			StoreDir:       storeDir,
			FenceFile:      filepath.Join(base, "fence"),
			LeaderTTL:      ttl,
			RolePreference: role,
			Obs:            obs.NewRegistry(),
			Logf:           func(f string, a ...any) { t.Logf("["+name+"] "+f, a...) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	leader := mk("A", "leader")
	defer leader.Abort()
	waitUntil(t, 5*time.Second, "initial leader election", leader.IsLeader)
	id, err := leader.Scheduler().Submit(acceptanceSpec)
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(storeDir, "wal", "control.log")
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}

	standby := mk("B", "follower")
	defer standby.Abort()
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noFollow.Get(standby.Advertise() + "/api/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loc := resp.Header.Get("Location"); resp.StatusCode != http.StatusTemporaryRedirect || !strings.HasPrefix(loc, leader.Advertise()) {
		t.Errorf("standby's first answer: %d to %q, want a 307 to %s", resp.StatusCode, loc, leader.Advertise())
	}
	// The standby yields one TTL, then polls the fence every quarter TTL.
	time.Sleep(3 * ttl)
	if standby.IsLeader() || standby.Store() != nil || standby.Scheduler() != nil {
		t.Fatalf("standby beside a live leader: leader=%v store=%v scheduler=%v", standby.IsLeader(), standby.Store(), standby.Scheduler())
	}
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || after.Size() != before.Size() {
		t.Fatalf("standby touched the leader's log: %d bytes -> %d bytes, same file %v", before.Size(), after.Size(), os.SameFile(before, after))
	}

	leader.Abort()
	waitUntil(t, 10*time.Second, "standby promotion", standby.IsLeader)
	promoted, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, promoted) {
		t.Errorf("promotion kept the deposed leader's log file")
	}
	if standby.Scheduler().Status(id) == nil {
		t.Errorf("promoted standby does not know campaign %s from the leader's log", id)
	}
}

// TestHAFailoverCompletesCampaign is the HA acceptance test: a leader +
// standby pair over a shared fence file and store directory, workers and
// client talking through the failover-aware Client. The leader is killed
// (no drain, no fence release) mid-campaign; the follower must promote
// within a few TTLs, finish the campaign from the leader's own log, and
// produce a merged summary bitwise identical to an uninterrupted
// single-process run.
func TestHAFailoverCompletesCampaign(t *testing.T) {
	app, err := apps.ByName(acceptanceSpec.App)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := campaign.Run(campaignConfig(acceptanceSpec.normalize(), app, 0))
	if err != nil {
		t.Fatal(err)
	}

	base := t.TempDir()
	shared := filepath.Join(base, "store")
	fencePath := filepath.Join(base, "fence")
	const ttl = 500 * time.Millisecond

	mk := func(name, role string) *Server {
		srv, err := NewServer(ServerConfig{
			Addr:           "127.0.0.1:0",
			StoreDir:       shared,
			FenceFile:      fencePath,
			LeaderTTL:      ttl,
			RolePreference: role,
			Obs:            obs.NewRegistry(),
			Sched: SchedConfig{
				LeaseTTL:       150 * time.Millisecond,
				ExpiryInterval: 25 * time.Millisecond,
				BackoffBase:    time.Millisecond,
				Logf:           func(f string, a ...any) { t.Logf("["+name+"] "+f, a...) },
			},
			Logf: func(f string, a ...any) { t.Logf("["+name+"] "+f, a...) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		return srv
	}

	leader := mk("A", "leader")
	defer leader.Abort()
	waitUntil(t, 5*time.Second, "initial leader election", leader.IsLeader)
	follower := mk("B", "follower")
	defer follower.Abort()

	peers := leader.Addr() + "," + follower.Addr()
	cl := NewClient(peers)
	id, err := cl.Submit(acceptanceSpec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{
			Name:         fmt.Sprintf("ha-worker-%d", i),
			Control:      NewClient(peers),
			PollInterval: 5 * time.Millisecond,
			Logf:         t.Logf,
		})
		w.Start()
		defer w.Stop()
	}

	// Let the campaign get well underway (at least one shard done), then
	// kill the leader the hard way: no drain, fence lease NOT released.
	waitUntil(t, 60*time.Second, "mid-campaign progress", func() bool {
		st, err := cl.Status(id)
		return err == nil && st.DoneRuns >= 5
	})
	killedAt := time.Now()
	leader.Abort()

	waitUntil(t, 10*time.Second, "follower promotion", follower.IsLeader)
	promoteDelay := time.Since(killedAt)
	t.Logf("follower promoted %s after the kill (leader TTL %s)", promoteDelay, ttl)
	if promoteDelay > 4*ttl {
		t.Errorf("promotion took %s, want within ~%s (4x TTL ceiling)", promoteDelay, ttl)
	}

	doc, err := cl.WaitSummary(id)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(doc.Summary), wantJSON) {
		t.Errorf("post-failover summary diverges from uninterrupted baseline:\n%s\n%s", doc.Summary, wantJSON)
	}
	if doc.Report != baseline.Report() {
		t.Errorf("post-failover report diverges:\n%q\n%q", doc.Report, baseline.Report())
	}
	if got := follower.Registry().Counter("server_failovers_total").Value(); got < 1 {
		t.Errorf("server_failovers_total = %d on the new leader, want >= 1", got)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
