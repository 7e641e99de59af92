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

// TestWALOldVersionRefused: a log whose header names a record layout this
// build does not write must be refused with *CorruptError and left untouched
// — replaying it through the current decoder, or starting an empty hub over
// it, would resurrect or drop taint. Versions 1 to 3 carried a generation in
// the header: 1 had fixed-width fields, 2 logged consumed polls where 3 has
// retires, and 3 paired the log with a snapshot file beside it, which this
// build neither reads nor removes.
func TestWALOldVersionRefused(t *testing.T) {
	for _, v := range []byte{1, 2, 3} {
		dir := t.TempDir()
		path := filepath.Join(dir, "hub.wal")
		hdr := le.AppendUint64(append(le.AppendUint32([]byte{walRecHeader}, walMagic), v), 2)
		old := wal.AppendFrame(nil, hdr)
		old = wal.AppendFrame(old, encodeWALPublish(Key{Src: 0, Dst: 1}, 0, 1, []uint8{7}))
		files := map[string][]byte{path: old}
		if v == 3 {
			files[path+`.snap`] = wal.AppendFrame(nil, []byte("CNP2\x02 version-3 snapshot"))
		}
		for name, raw := range files {
			if err := os.WriteFile(name, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, err := OpenDurable(path, DurableConfig{})
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("open over a version-%d WAL = %v, want *CorruptError", v, err)
		}
		if !strings.Contains(ce.Reason, fmt.Sprintf("version %d", v)) {
			t.Errorf("refusal reason %q does not name the offending version", ce.Reason)
		}
		for name, want := range files {
			if raw, err := os.ReadFile(name); err != nil || !bytes.Equal(raw, want) {
				t.Errorf("version %d: refused open modified %s: %x (%v)", v, filepath.Base(name), raw, err)
			}
		}
		if entries, _ := os.ReadDir(dir); len(entries) != len(files) {
			t.Errorf("version %d: refused open left %d files, want %d", v, len(entries), len(files))
		}
	}
}
