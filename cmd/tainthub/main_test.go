package main

import (
	"net"
	"os"
	"path/filepath"

	"syscall"
	"testing"
	"time"

	"chaser/internal/tainthub"
)

func TestServerServesUntilSignal(t *testing.T) {
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0"}) }()

	// The server binds an ephemeral port we cannot read from here, so this
	// test exercises startup/shutdown; protocol coverage lives in the
	// tainthub package. Give the goroutine a moment to bind, then signal.
	time.Sleep(50 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
}

func TestBadAddr(t *testing.T) {
	if err := run([]string{"-addr", "256.0.0.1:99999"}); err == nil {
		t.Error("bad address accepted")
	}
}

func TestEndToEndAgainstPackageServer(t *testing.T) {
	// Full protocol round trip against the same server implementation the
	// command wraps.
	srv, err := tainthub.NewServer(tainthub.NewLocal(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tainthub.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := tainthub.Key{Src: 1, Dst: 2, Tag: 3}
	if err := c.Publish(tainthub.ReqID{}, k, 0, []uint8{9}); err != nil {
		t.Fatal(err)
	}
	if masks, ok, err := c.Poll(tainthub.ReqID{}, k, 0); err != nil || !ok || masks[0] != 9 {
		t.Fatalf("poll = %v %v %v", masks, ok, err)
	}
}

// TestDurableShutdownSnapshot runs the command with -wal, feeds it state
// over TCP, SIGTERMs it, and verifies that the log is the only file it left
// and that a fresh instance recovers that state from it — the
// operator-facing durability contract.
func TestDurableShutdownSnapshot(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "hub.wal")

	// Reserve an address so the test can reach the ephemeral server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-wal", walPath, "-snapshot-interval", "0"})
	}()

	var c *tainthub.Client
	for i := 0; ; i++ {
		c, err = tainthub.Dial(addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("server never came up on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	k := tainthub.Key{Src: 1, Dst: 2, Tag: 3}
	if err := c.Publish(tainthub.ReqID{Client: 1, Seq: 1}, k, 0, []uint8{0x42}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "hub.wal" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("after shutdown the directory holds %v, want only the log", names)
	}

	// A fresh process recovers the published entry.
	h, err := tainthub.OpenDurable(walPath, tainthub.DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if masks, ok, _ := h.Poll(tainthub.ReqID{Client: 2, Seq: 1}, k, 0); !ok || masks[0] != 0x42 {
		t.Fatalf("state lost across shutdown: masks=%v ok=%v", masks, ok)
	}
}

// TestCorruptWALRefused: the command must refuse structurally corrupt
// durable state instead of serving an empty hub.
func TestCorruptWALRefused(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "hub.wal")
	if err := os.WriteFile(walPath, []byte("definitely not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-wal", walPath}); err == nil {
		t.Error("corrupt log accepted")
	}
}
