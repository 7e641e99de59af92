package tainthub

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chaser/internal/wal"
)

// TestSnapshotUnknownVersionRefused is the satellite-3 regression test:
// the snapshot header carries a format-version byte, and a version this
// build does not know must be refused with *CorruptError — silently
// misdecoding another layout would resurrect or drop taint.
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
	// 99: a future format this build has never heard of; 1: the layout that
	// carried per-client reply caches after the entries.
	for _, v := range []byte{99, 1} {
		rec[4] = v
		if err := os.WriteFile(snapPath, wal.AppendFrame(nil, rec), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = OpenDurable(path, DurableConfig{})
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("open with snapshot version %d = %v, want *CorruptError", v, err)
		}
		if !strings.Contains(ce.Reason, fmt.Sprintf("version %d", v)) {
			t.Errorf("refusal reason %q does not name the offending version", ce.Reason)
		}
	}
}

// TestWALOldVersionRefused: a log whose header names a record layout this
// build does not write (the fixed-field version 1; version 2, whose record 3
// was a consumed poll where version 3 has a retire) must be refused with
// *CorruptError and left untouched — replaying it through the current
// decoder, or starting an empty hub over it, would resurrect or drop taint.
func TestWALOldVersionRefused(t *testing.T) {
	for _, v := range []byte{1, 2} {
		path := filepath.Join(t.TempDir(), "hub.wal")
		hdr := encodeWALHeader(1)
		hdr[5] = v
		old := wal.AppendFrame(nil, hdr)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenDurable(path, DurableConfig{})
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("open over a version-%d WAL = %v, want *CorruptError", v, err)
		}
		if !strings.Contains(ce.Reason, fmt.Sprintf("version %d", v)) {
			t.Errorf("refusal reason %q does not name the offending version", ce.Reason)
		}
		if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, old) {
			t.Errorf("refused WAL was modified: %x (%v)", raw, err)
		}
	}
}
