package tainthub

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"chaser/internal/obs"
	"chaser/internal/wal"
)

func durablePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "hub.wal")
}

// TestDurableRecoversFromWAL: state acknowledged before a hard crash (no
// final snapshot) must be fully reconstructed from the log alone.
func TestDurableRecoversFromWAL(t *testing.T) {
	path := durablePath(t)
	h, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	kA := Key{Src: 0, Dst: 1, Tag: 2}
	kB := Key{Src: 1, Dst: 0, Tag: 2}
	if err := h.Publish(ReqID{Client: 1, Seq: 1}, kA, 0, []uint8{0xaa, 0x55}); err != nil {
		t.Fatal(err)
	}
	if err := h.Publish(ReqID{Client: 1, Seq: 2}, kB, 3, []uint8{0x01}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := h.Poll(ReqID{Client: 2, Seq: 1}, kB, 3); !ok {
		t.Fatal("poll before crash missed")
	}
	kC := Key{Src: 2, Dst: 3, Tag: 2, NS: 9}
	if err := h.Publish(ReqID{Client: 1, Seq: 3}, kC, 0, []uint8{0x7f}); err != nil {
		t.Fatal(err)
	}
	if err := h.Retire(9, 10); err != nil {
		t.Fatal(err)
	}
	if err := h.Abandon(); err != nil { // kill -9: no final snapshot
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	h2, err := OpenDurable(path, DurableConfig{Obs: reg})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer h2.Close()
	// Three publishes and one retire; the poll wrote nothing.
	if h2.RecoveredRecords() != 4 {
		t.Errorf("recovered %d records, want 4", h2.RecoveredRecords())
	}
	if got := reg.Counter("tainthub_replayed_total").Value(); got != 4 {
		t.Errorf("tainthub_replayed_total = %d, want 4", got)
	}
	st := h2.Stats()
	if st.Replayed != 4 || st.Pending != 2 || st.Published != 3 {
		t.Errorf("stats after recovery = %+v", st)
	}
	// kA and kB are both still stored — kB was polled before the crash, and a
	// poll reads — and kC's namespace stays retired (no resurrected taint).
	if masks, ok, _ := h2.Poll(ReqID{Client: 3, Seq: 1}, kA, 0); !ok || masks[0] != 0xaa || masks[1] != 0x55 {
		t.Errorf("kA after recovery: masks=%v ok=%v", masks, ok)
	}
	if masks, ok, _ := h2.Poll(ReqID{Client: 3, Seq: 2}, kB, 3); !ok || masks[0] != 0x01 {
		t.Errorf("kB after recovery: masks=%v ok=%v", masks, ok)
	}
	if _, ok, _ := h2.Poll(ReqID{Client: 3, Seq: 3}, kC, 0); ok {
		t.Error("retired entry resurrected by replay")
	}
}

// TestDurableSnapshotTruncatesWAL: a snapshot must bound the log and
// recovery must compose snapshot + subsequent records.
func TestDurableSnapshotTruncatesWAL(t *testing.T) {
	path := durablePath(t)
	reg := obs.NewRegistry()
	h, err := OpenDurable(path, DurableConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := h.Publish(ReqID{Client: 1, Seq: uint64(i + 1)}, Key{Src: 0, Dst: 1, Tag: i}, 0, []uint8{uint8(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A retire of namespaces that hold nothing: a record the compaction
	// drops. (A log whose every record is live compacts to its own size.)
	if err := h.Retire(1, 2); err != nil {
		t.Fatal(err)
	}
	before := h.WALSize()
	if err := h.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if after := h.WALSize(); after >= before {
		t.Errorf("snapshot did not shrink WAL: %d -> %d", before, after)
	}
	if got := reg.Counter("tainthub_wal_snapshots_total").Value(); got != 1 {
		t.Errorf("tainthub_wal_snapshots_total = %d", got)
	}
	// One more mutation after the snapshot, then crash.
	if err := h.Publish(ReqID{Client: 1, Seq: 11}, Key{Src: 5, Dst: 6, Tag: 7}, 0, []uint8{0xff}); err != nil {
		t.Fatal(err)
	}
	if err := h.Abandon(); err != nil {
		t.Fatal(err)
	}

	h2, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if h2.RecoveredRecords() != 1 {
		t.Errorf("replayed %d records, want 1 (rest from snapshot)", h2.RecoveredRecords())
	}
	if st := h2.Stats(); st.Pending != 11 || st.Published != 11 {
		t.Errorf("stats after snapshot+WAL recovery = %+v", st)
	}
	for i := 0; i < 10; i++ {
		if masks, ok, _ := h2.Poll(ReqID{Client: 2, Seq: uint64(i + 1)}, Key{Src: 0, Dst: 1, Tag: i}, 0); !ok || masks[0] != uint8(i) {
			t.Fatalf("entry %d lost across snapshot recovery", i)
		}
	}
	if masks, ok, _ := h2.Poll(ReqID{Client: 2, Seq: 11}, Key{Src: 5, Dst: 6, Tag: 7}, 0); !ok || masks[0] != 0xff {
		t.Error("post-snapshot entry lost")
	}
}

// TestDurableTornTail: a torn final record (partial write at crash) is
// silently truncated; everything before it survives.
func TestDurableTornTail(t *testing.T) {
	path := durablePath(t)
	h, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := h.Publish(ReqID{Client: 1, Seq: uint64(i + 1)}, Key{Src: 0, Dst: 1, Tag: i}, 0, []uint8{uint8(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Abandon(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	if err := os.WriteFile(path, raw[:len(raw)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	h2, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	defer h2.Close()
	if h2.RecoveredRecords() != 4 {
		t.Errorf("recovered %d records, want 4 (last torn)", h2.RecoveredRecords())
	}
}

// TestDurablePublishFailureRepaired: a publish whose WAL append fails half
// written (a transient ENOSPC) returns its error and the hub keeps serving.
// Every publish acknowledged afterwards must survive a crash: left in the
// log, the torn frame would end the next replay in front of them all.
func TestDurablePublishFailureRepaired(t *testing.T) {
	path := durablePath(t)
	h, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fail := false
	opts := walOptions
	opts.Fault = func(site string) bool { return fail && site == wal.FaultShortWrite }
	h.log.Close()
	if h.log, err = wal.Open(path, opts, nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		fail = i == 2
		err := h.Publish(ReqID{Client: 1, Seq: uint64(i)}, Key{Src: 0, Dst: 1, Tag: i}, 0, []uint8{uint8(i)})
		if fail != (err != nil) {
			t.Fatalf("publish %d: err = %v with the fault armed = %v", i, err, fail)
		}
	}
	if err := h.Abandon(); err != nil {
		t.Fatal(err)
	}
	h2, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if h2.RecoveredRecords() != 4 {
		t.Errorf("recovered %d records, want the 4 acknowledged publishes", h2.RecoveredRecords())
	}
	for i := 1; i <= 5; i++ {
		masks, ok, err := h2.Poll(ReqID{Client: 2, Seq: uint64(i)}, Key{Src: 0, Dst: 1, Tag: i}, 0)
		if err != nil || ok != (i != 2) || (ok && masks[0] != uint8(i)) {
			t.Errorf("publish %d after recovery: masks=%v ok=%v err=%v", i, masks, ok, err)
		}
	}
}

// TestDurableBitFlip: CRC framing catches a corrupted record; replay stops
// there instead of applying garbage.
func TestDurableBitFlip(t *testing.T) {
	path := durablePath(t)
	h, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := h.Publish(ReqID{Client: 1, Seq: uint64(i + 1)}, Key{Src: 0, Dst: 1, Tag: i}, 0, []uint8{uint8(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Abandon(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-100] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	h2, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatalf("bit flip not tolerated: %v", err)
	}
	defer h2.Close()
	if n := h2.RecoveredRecords(); n >= 5 {
		t.Errorf("recovered %d records despite a flipped bit", n)
	}
}

// TestDurableCorruptSnapshotTyped: damage to the log's compacted head must
// surface as *CorruptError, not as a silent empty hub or an untyped failure,
// and leave the file as it was.
func TestDurableCorruptSnapshotTyped(t *testing.T) {
	path := durablePath(t)
	h, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Publish(ReqID{Client: 1, Seq: 1}, Key{Src: 0, Dst: 1}, 0, []uint8{1}); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil { // compacts: header, the publish, checkpoint
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff // inside the publish record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurable(path, DurableConfig{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt head error = %v, want *CorruptError", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, raw) {
		t.Errorf("refused log was modified: %x (%v)", after, err)
	}
}

// TestDurableAckAfterFailedSnapshotSurvives: a compaction that cannot write
// its new log fails, and the old log stays the one the hub appends to and
// recovers from, so a publish acknowledged after the failure survives.
func TestDurableAckAfterFailedSnapshotSurvives(t *testing.T) {
	path := durablePath(t)
	h, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Src: 0, Dst: 1, Tag: 2}
	if err := h.Publish(ReqID{Client: 1, Seq: 1}, k, 0, []uint8{0xa0}); err != nil {
		t.Fatal(err)
	}
	// A directory where the compaction's temp file goes.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := h.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded with its temp file blocked")
	}
	if err := h.Publish(ReqID{Client: 1, Seq: 2}, k, 1, []uint8{0xa1}); err != nil {
		t.Fatalf("publish after a failed snapshot: %v", err)
	}
	if err := h.Abandon(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	h2, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	for seq := uint64(0); seq < 2; seq++ {
		if masks, ok, _ := h2.Poll(ReqID{Client: 2, Seq: seq + 1}, k, seq); !ok || masks[0] != 0xa0+uint8(seq) {
			t.Errorf("acknowledged publish (seq %d) lost after recovery; recovered records %d", seq, h2.RecoveredRecords())
		}
	}
}

// TestDurableClosedOps: operations after Close fail loudly instead of
// silently writing to a closed log.
func TestDurableClosedOps(t *testing.T) {
	path := durablePath(t)
	h, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Publish(ReqID{}, Key{}, 0, []uint8{1}); err == nil {
		t.Error("publish on closed hub succeeded")
	}
	if _, _, err := h.Poll(ReqID{}, Key{}, 0); err == nil {
		t.Error("poll on closed hub succeeded")
	}
	if err := h.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestDurableConcurrentHammer races Publish/Poll/Retire/Stats/Snapshot across
// goroutines (run under -race in CI). Afterwards a recovery must account
// for every acknowledged publish: retired or still stored, never lost.
func TestDurableConcurrentHammer(t *testing.T) {
	path := durablePath(t)
	h, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := uint64(w + 1)
			for i := 0; i < perWorker; i++ {
				k := Key{Src: w, Dst: (w + 1) % workers, Tag: i, NS: w}
				if err := h.Publish(ReqID{Client: client, Seq: uint64(2*i + 1)}, k, 0, []uint8{uint8(i)}); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
				if i%2 == 0 {
					if _, ok, err := h.Poll(ReqID{Client: client, Seq: uint64(2*i + 2)}, k, 0); err != nil || !ok {
						t.Errorf("poll back own publish: ok=%v err=%v", ok, err)
						return
					}
				}
				_ = h.Stats()
			}
			if w%2 == 0 {
				if err := h.Retire(w, w+1); err != nil {
					t.Errorf("retire: %v", err)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-done:
				return
			default:
				if err := h.Snapshot(); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(done)
	<-snapDone
	st := h.Stats()
	if err := h.Abandon(); err != nil {
		t.Fatal(err)
	}

	h2, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatalf("recovery after hammer: %v", err)
	}
	defer h2.Close()
	st2 := h2.Stats()
	wantPending := workers * perWorker / 2 // odd workers never retired
	if st.Pending != wantPending || st2.Pending != wantPending {
		t.Errorf("pending = %d live / %d recovered, want %d", st.Pending, st2.Pending, wantPending)
	}
	if st2.Published != uint64(workers*perWorker) {
		t.Errorf("recovered published = %d, want %d", st2.Published, workers*perWorker)
	}
}
