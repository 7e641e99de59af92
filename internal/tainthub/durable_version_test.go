package tainthub

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chaser/internal/wal"
)

// TestSnapshotUnknownVersionRefused is the satellite-3 regression test:
// the snapshot header carries a format-version byte, and a version this
// build does not know must be refused with *CorruptError — silently
// misdecoding a future layout would resurrect or drop consumed taint.
func TestSnapshotUnknownVersionRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hub.wal")
	d, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Publish(ReqID{Client: 1, Seq: 1}, Key{Src: 0, Dst: 1, Tag: 2}, 0, []uint8{0xaa}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	snapPath := path + ".snap"
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := wal.ReadFrame(bytes.NewReader(raw), len(raw))
	if err != nil {
		t.Fatal(err)
	}
	if rec[4] != snapVersion {
		t.Fatalf("snapshot version byte = %d, want %d", rec[4], snapVersion)
	}
	rec[4] = 99 // a future format this build has never heard of
	if err := os.WriteFile(snapPath, wal.AppendFrame(nil, rec), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurable(path, DurableConfig{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("open with unknown snapshot version = %v, want *CorruptError", err)
	}
	if !strings.Contains(ce.Reason, "version 99") {
		t.Errorf("refusal reason %q does not name the offending version", ce.Reason)
	}
}

// TestWALOldVersionRefused: a log whose header names a record layout this
// build does not write (the fixed-field version 1) must be refused with
// *CorruptError and left untouched — replaying it through the current
// decoder, or starting an empty hub over it, would resurrect or drop taint.
func TestWALOldVersionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.wal")
	hdr := encodeWALHeader(1)
	hdr[5] = 1
	old := wal.AppendFrame(nil, hdr)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDurable(path, DurableConfig{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("open over a version-1 WAL = %v, want *CorruptError", err)
	}
	if !strings.Contains(ce.Reason, "version 1") {
		t.Errorf("refusal reason %q does not name the offending version", ce.Reason)
	}
	if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, old) {
		t.Errorf("refused WAL was modified: %x (%v)", raw, err)
	}
}
