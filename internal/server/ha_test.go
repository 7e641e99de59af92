package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

// TestReplicationTornFrameDetected: a frame cut mid-payload must decode as
// wal.ErrTorn (the follower severs and re-pulls), a bit-flipped payload as
// wal.ErrCorrupt, and an intact stream ends in clean io.EOF.
func TestReplicationTornFrameDetected(t *testing.T) {
	rec := walRecord{T: "done", C: "c000001", Shard: 1, Epoch: 3}
	var first, both bytes.Buffer
	if err := encodeFrame(&first, replFrame{Seq: 0, Epoch: 3, Rec: &rec}); err != nil {
		t.Fatal(err)
	}
	both.Write(first.Bytes())
	if err := encodeFrame(&both, replFrame{Seq: 1, Epoch: 3, Rec: &rec}); err != nil {
		t.Fatal(err)
	}
	full := both.Bytes()

	// Intact stream: two frames, then clean EOF.
	r := bytes.NewReader(full)
	for i := 0; i < 2; i++ {
		fr, err := decodeFrame(r)
		if err != nil || fr.Seq != i {
			t.Fatalf("intact frame %d: seq=%d err=%v", i, fr.Seq, err)
		}
	}
	if _, err := decodeFrame(r); err != io.EOF {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}

	// Torn mid-second-frame: first decodes, the tear is unmistakable.
	cut := len(first.Bytes()) + (len(full)-len(first.Bytes()))/2
	r = bytes.NewReader(full[:cut])
	if _, err := decodeFrame(r); err != nil {
		t.Fatalf("frame before the tear: %v", err)
	}
	if _, err := decodeFrame(r); !errors.Is(err, wal.ErrTorn) {
		t.Fatalf("torn frame: %v, want wal.ErrTorn", err)
	}

	// Bit rot inside the payload: CRC catches it as structural damage.
	bad := append([]byte(nil), full...)
	bad[10] ^= 0x20
	if _, err := decodeFrame(bytes.NewReader(bad)); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("corrupt frame: %v, want wal.ErrCorrupt", err)
	}
}

// TestFollowerRejectsStaleLeaderFrames: a follower that has observed epoch
// N refuses every frame from a stream claiming epoch < N — the deposed
// leader cannot ship one byte of state, and the refusal is counted in
// server_fenced_appends_total.
func TestFollowerRejectsStaleLeaderFrames(t *testing.T) {
	rec := walRecord{T: "campaign", C: "c000001", Epoch: 1}
	stale := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Chaser-Log-Id", "stale-log")
		w.WriteHeader(http.StatusOK)
		encodeFrame(w, replFrame{Seq: 0, Epoch: 1, Rec: &rec})
	}))
	defer stale.Close()

	store, _, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := obs.NewRegistry()
	fence := NewFencer(filepath.Join(t.TempDir(), "fence"), "B", time.Second, nil)
	fence.noteEpoch(2) // the follower has already seen the new leader's epoch
	repl := newReplicator(store, fence, reg, t.Logf, "http://self", func() string { return stale.URL })

	err = repl.streamOnce(stale.URL)
	if err == nil || !strings.Contains(err.Error(), "stale leader") {
		t.Fatalf("streamOnce from a deposed leader: %v, want a stale-leader severance", err)
	}
	if store.Seq() != 0 {
		t.Errorf("stale frame was applied: log has %d records", store.Seq())
	}
	if got := reg.Counter("server_fenced_appends_total").Value(); got != 1 {
		t.Errorf("server_fenced_appends_total = %d, want 1", got)
	}
}

// TestHAFailoverCompletesCampaign is the HA acceptance test: a leader +
// hot-standby pair over a shared fence file and data dir, workers and
// client talking through the failover-aware Client, replication chaos
// armed on the leader. The leader is killed (no drain, no fence release)
// mid-campaign; the follower must promote within a few TTLs, finish the
// campaign, and produce a merged summary bitwise identical to an
// uninterrupted single-process run.
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
	shared := filepath.Join(base, "data")
	fencePath := filepath.Join(base, "fence")
	const ttl = 500 * time.Millisecond
	chaos, err := ParseChaos("seed=11,rate=0.05,sites=repl.drop_frame+repl.tear_frame")
	if err != nil {
		t.Fatal(err)
	}

	mk := func(name, storeDir, role, peer string, chaos *Chaos) *Server {
		srv, err := NewServer(ServerConfig{
			Addr:           "127.0.0.1:0",
			StoreDir:       storeDir,
			DataDir:        shared,
			FenceFile:      fencePath,
			Peer:           peer,
			LeaderTTL:      ttl,
			RolePreference: role,
			Chaos:          chaos,
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

	leader := mk("A", filepath.Join(base, "a"), "leader", "", chaos)
	defer leader.Abort()
	waitUntil(t, 5*time.Second, "initial leader election", leader.IsLeader)
	follower := mk("B", filepath.Join(base, "b"), "follower", leader.Advertise(), nil)
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
