package server

import (
	"errors"
	"os"
	"testing"

	"chaser/internal/wal"
)

// TestStoreTornTailTruncated: a crash mid-append leaves a torn final frame;
// reopening must recover every complete record, truncate the tail, and
// keep accepting appends that a further reopen also recovers.
func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	store, recs, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh store replayed %d records", len(recs))
	}
	for i := 0; i < 3; i++ {
		if err := store.Append(walRecord{T: "done", C: "c000000", Shard: i}); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()

	// Tear the tail the way a crash does: a partial frame at EOF.
	f, err := os.OpenFile(store.walPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := wal.AppendFrame(nil, []byte(`{"t":"done","c":"c000000","s":3}`))
	if _, err := f.Write(torn[:len(torn)-9]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	store2, recs2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs2))
	}
	for i, rec := range recs2 {
		if rec.T != "done" || rec.Shard != i {
			t.Errorf("record %d = %+v", i, rec)
		}
	}
	// Appends after the truncation must land cleanly after the valid prefix.
	// (A non-terminal record: a terminal one would let startup compaction
	// legitimately fold the campaign down on the next open.)
	if err := store2.Append(walRecord{T: "done", C: "c000000", Shard: 3}); err != nil {
		t.Fatal(err)
	}
	store2.Close()
	_, recs3, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs3) != 4 || recs3[3].Shard != 3 {
		t.Fatalf("after post-truncation append: %d records, last %+v", len(recs3), recs3[len(recs3)-1])
	}
}

// TestStoreCorruptMiddleStopsReplay: silent bit rot inside the file (CRC
// mismatch on a non-final record) must stop replay at the damage rather than
// trust anything after it.
func TestStoreCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := store.Append(walRecord{T: "done", C: "c000000", Shard: i}); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	path := store.walPath()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40 // flip a bit mid-file
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	store2, recs, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if len(recs) >= 3 {
		t.Fatalf("replay returned %d records across corruption, want a strict prefix", len(recs))
	}
	for i, rec := range recs {
		if rec.Shard != i {
			t.Errorf("prefix record %d = %+v", i, rec)
		}
	}
}

// TestStoreWALFaultsLeaveAUsableLog: the store's fault hook reaches the
// log's append at both of its sites. An injected failure fails the append,
// admits nothing to the logical log, and leaves a log the next append and
// open can use.
func TestStoreWALFaultsLeaveAUsableLog(t *testing.T) {
	for _, site := range []string{wal.FaultShortWrite, wal.FaultSync} {
		dir := t.TempDir()
		armed := true
		store, _, err := OpenStore(dir, StoreOptions{Fsync: true, fault: func(s string) bool { return armed && s == site }})
		if err != nil {
			t.Fatal(err)
		}
		err = store.Append(walRecord{T: "campaign", C: "c000001"})
		if !errors.Is(err, wal.ErrInjected) {
			t.Fatalf("%s: append = %v, want the injected failure", site, err)
		}
		if store.Seq() != 0 {
			t.Errorf("%s: failed append admitted to the logical log", site)
		}
		armed = false
		if err := store.Append(walRecord{T: "done", C: "c000001"}); err != nil || store.Seq() != 1 {
			t.Errorf("%s: next append = %v, seq %d, want it admitted", site, err, store.Seq())
		}
		store.Close()
		store2, recs, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatalf("%s: reopen: %v", site, err)
		}
		// The short write left nothing; the record whose fsync failed is
		// whole on disk and replays (records are idempotent to replay).
		if want := map[string]int{wal.FaultShortWrite: 1, wal.FaultSync: 2}[site]; len(recs) != want {
			t.Errorf("%s: reopen replayed %d records, want %d", site, len(recs), want)
		}
		store2.Close()
	}
}

// TestStoreSummaryRoundTrip exercises the atomic summary store.
func TestStoreSummaryRoundTrip(t *testing.T) {
	store, _, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if raw, err := store.ReadSummary("c000000"); err != nil || raw != nil {
		t.Fatalf("absent summary: %q, %v", raw, err)
	}
	want := []byte(`{"report":"ok"}`)
	if err := store.WriteSummary("c000000", want); err != nil {
		t.Fatal(err)
	}
	got, err := store.ReadSummary("c000000")
	if err != nil || string(got) != string(want) {
		t.Fatalf("read summary: %q, %v", got, err)
	}
}
