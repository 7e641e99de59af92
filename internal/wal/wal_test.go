package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

var testOpts = Options{MaxPayload: 1 << 16}

func record(i int) []byte {
	return []byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte{'x'}, i%7)))
}

// openAll opens the log and returns it with the payloads it replayed.
func openAll(t *testing.T, path string, opts Options) (*Log, [][]byte) {
	t.Helper()
	var got [][]byte
	l, err := Open(path, opts, func(p []byte) error {
		got = append(got, p)
		return nil
	})
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return l, got
}

// checkPrefix fails unless got is records 0..len(got)-1.
func checkPrefix(t *testing.T, what string, got [][]byte) {
	t.Helper()
	for i, p := range got {
		if !bytes.Equal(p, record(i)) {
			t.Fatalf("%s: replayed record %d = %q, want %q", what, i, p, record(i))
		}
	}
}

// TestLogCrashWindows is the one crash-window table for every log in the
// tree: for a log of n records, truncate at every byte offset of the last
// two records and flip every byte of the last one. Each reopen must yield an
// intact prefix, leave nothing behind the damage, and accept appends that
// survive a further reopen.
func TestLogCrashWindows(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean")
	var payloads [][]byte
	var offs []int // offs[i] = offset of record i; offs[n] = file size
	size := 0
	for i := 0; i < n; i++ {
		payloads = append(payloads, record(i))
		offs = append(offs, size)
		size += HeaderSize + len(record(i))
	}
	offs = append(offs, size)
	l, err := Create(clean, testOpts, false, payloads[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads[2:] {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if l.Size() != int64(size) {
		t.Fatalf("size = %d, want %d", l.Size(), size)
	}
	l.Close()
	raw, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	type damage struct {
		what string
		data []byte
		want int // records that must survive
	}
	var cases []damage
	for cut := offs[n-2]; cut < size; cut++ {
		whole := n - 2
		if cut >= offs[n-1] {
			whole = n - 1
		}
		cases = append(cases, damage{fmt.Sprintf("truncated at %d", cut), raw[:cut], whole})
	}
	for at := offs[n-1]; at < size; at++ {
		flipped := append([]byte(nil), raw...)
		flipped[at] ^= 0x10
		cases = append(cases, damage{fmt.Sprintf("byte %d flipped", at), flipped, n - 1})
	}
	for _, c := range cases {
		path := filepath.Join(dir, "damaged")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got := openAll(t, path, testOpts)
		if len(got) != c.want {
			t.Fatalf("%s: replayed %d records, want %d", c.what, len(got), c.want)
		}
		checkPrefix(t, c.what, got)
		if want := int64(offs[len(got)]); l.Size() != want {
			t.Fatalf("%s: log positioned at %d, want %d (just past the intact prefix)", c.what, l.Size(), want)
		}
		for i := len(got); i < len(got)+2; i++ {
			if _, err := l.Append(record(i)); err != nil {
				t.Fatalf("%s: append after repair: %v", c.what, err)
			}
		}
		l.Close()
		l, again := openAll(t, path, testOpts)
		l.Close()
		if len(again) != len(got)+2 {
			t.Fatalf("%s: second reopen replayed %d records, want %d", c.what, len(again), len(got)+2)
		}
		checkPrefix(t, c.what+", reopened", again)
	}
}

// TestAppendFailureRepaired is the short-write regression: a failed append
// must not leave half a frame in the middle of the log, or every record
// acknowledged afterwards lands behind damage and the next open drops it.
func TestAppendFailureRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	arm := false
	opts := testOpts
	opts.Fault = func(site string) bool { return arm && site == FaultShortWrite }
	l, err := Create(path, opts, false, [][]byte{record(0)})
	if err != nil {
		t.Fatal(err)
	}
	arm = true
	before := l.Size()
	if _, err := l.Append([]byte("lost to the short write")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append under the fault = %v, want ErrInjected", err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != before || l.Size() != before {
		t.Fatalf("after the failed append the file is %v bytes and the log %d, want both %d", st.Size(), l.Size(), before)
	}
	arm = false
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l, got := openAll(t, path, testOpts)
	l.Close()
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want the first and all 3 appended after the failure", len(got))
	}
	checkPrefix(t, "after a repaired append", got)
}

// TestSyncFaultFailsAppend: in Sync mode a failed fsync fails the append
// (the caller must not acknowledge it) while the log stays consistent with
// the file.
func TestSyncFaultFailsAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	asked := map[string]int{}
	opts := Options{MaxPayload: 64, Sync: true, Fault: func(site string) bool {
		asked[site]++
		return site == FaultSync
	}}
	l, err := Create(path, opts, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append with a failing fsync = %v, want ErrInjected", err)
	}
	if asked[FaultShortWrite] != 1 || asked[FaultSync] != 1 {
		t.Errorf("hook consulted %v, want each site once", asked)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != l.Size() {
		t.Errorf("file is %v bytes, log says %d", st.Size(), l.Size())
	}
	if _, err := l.Append(make([]byte, 65)); err == nil {
		t.Error("payload over MaxPayload accepted: it could never be read back")
	}
}

// TestReplayCallbackVerdicts: ErrCorrupt from the callback ends the replay
// like a failed checksum (truncate there); any other error aborts the open
// and leaves the file alone; a missing file is fs.ErrNotExist.
func TestReplayCallbackVerdicts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Create(path, testOpts, false, [][]byte{record(0), record(1), record(2)})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	whole, _ := os.ReadFile(path)

	boom := errors.New("refused")
	if _, err := Open(path, testOpts, func(p []byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("open with a refusing callback = %v", err)
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, whole) {
		t.Fatal("a refused open modified the file")
	}
	n := 0
	if err := Replay(path, testOpts.MaxPayload, func([]byte) error { n++; return nil }); err != nil || n != 3 {
		t.Fatalf("read-only replay saw %d records (%v), want 3", n, err)
	}
	n = 0
	l, err = Open(path, testOpts, func(p []byte) error {
		if n == 1 {
			return fmt.Errorf("record 1 undecodable: %w", ErrCorrupt)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if now, _ := os.ReadFile(path); !bytes.Equal(now, whole[:HeaderSize+len(record(0))]) {
		t.Fatalf("log after a rejected record is %d bytes, want just the first record", len(now))
	}
	if _, err := Open(filepath.Join(t.TempDir(), "absent"), testOpts, nil); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open of a missing log = %v, want fs.ErrNotExist", err)
	}
}

// TestAtomicReplaceCrashWindows: a rewrite that dies before its rename
// leaves a temp file beside an intact target. Readers ignore it; the next
// Open of a log removes it and the next WriteFile overwrites it.
func TestAtomicReplaceCrashWindows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	stale := func() {
		t.Helper()
		if err := os.WriteFile(path+tmpSuffix, []byte("half of a newer version"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gone := func(what string) {
		t.Helper()
		if _, err := os.Stat(path + tmpSuffix); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: temp file still there (%v)", what, err)
		}
	}

	if err := WriteFile(path, []byte("v1"), true); err != nil {
		t.Fatal(err)
	}
	stale()
	if got, err := os.ReadFile(path); err != nil || string(got) != "v1" {
		t.Fatalf("target beside a stale temp = %q, %v", got, err)
	}
	if err := WriteFile(path, []byte("v2"), false); err != nil {
		t.Fatal(err)
	}
	gone("after WriteFile")
	if got, _ := os.ReadFile(path); string(got) != "v2" {
		t.Fatalf("target = %q, want v2", got)
	}

	l, err := Create(path, testOpts, false, [][]byte{record(0), record(1)})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	stale()
	l, got := openAll(t, path, testOpts)
	l.Close()
	if len(got) != 2 {
		t.Fatalf("log beside a stale temp replayed %d records, want 2", len(got))
	}
	gone("after Open")

	// A write that cannot complete leaves the target as it was and no temp.
	if err := WriteFile(filepath.Join(dir, "no-such-dir", "x"), []byte("v"), false); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// FuzzFrame drives arbitrary bytes through the frame reader. The invariant:
// every error is io.EOF, ErrTorn or ErrCorrupt; no payload is returned whose
// length is zero or over the bound or whose checksum fails; and every
// accepted payload re-frames to the exact bytes that were read.
func FuzzFrame(f *testing.F) {
	valid := AppendFrame(nil, []byte("hello, frame"))
	f.Add(valid, 64)
	f.Add(append(append([]byte(nil), valid...), valid...), 64)
	f.Add(valid[:len(valid)-3], 64)                       // torn payload
	f.Add(valid[:5], 64)                                  // torn header
	f.Add(valid, 4)                                       // over the bound
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, 64)             // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, 64) // absurd length
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped, 64)
	f.Fuzz(func(t *testing.T, data []byte, max int) {
		if max < 0 || max > 1<<20 {
			max = 1 << 20
		}
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			payload, err := ReadFrame(r, max)
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("untyped error: %v", err)
				}
				if err == io.EOF && r.Len() != 0 {
					t.Fatalf("clean EOF with %d bytes unread", r.Len())
				}
				return
			}
			if len(payload) == 0 || len(payload) > max {
				t.Fatalf("accepted a %d-byte payload under bound %d", len(payload), max)
			}
			end := len(data) - r.Len()
			if !bytes.Equal(AppendFrame(nil, payload), data[start:end]) {
				t.Fatalf("accepted payload does not re-frame to the bytes read at [%d,%d)", start, end)
			}
		}
	})
}
