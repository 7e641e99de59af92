package tainthub

import (
	"bufio"
	"encoding/json"

	"net"
	"sync"
	"testing"
	"time"

	"chaser/internal/obs"
)

// fastRetry is a client config tuned so failure paths resolve in
// milliseconds instead of the production seconds.
func fastRetry(reg *obs.Registry) ClientConfig {
	return ClientConfig{
		DialTimeout: 2 * time.Second,
		RPCTimeout:  100 * time.Millisecond,
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Obs:         reg,
	}
}

// TestClientRPCTimeout verifies the satellite fix: a round trip against a
// server that accepts but never responds must fail within the RPC deadline
// instead of blocking forever.
func TestClientRPCTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept and go silent
		}
	}()

	reg := obs.NewRegistry()
	c, err := DialConfig(ln.Addr().String(), fastRetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() { done <- c.Publish(ReqID{}, Key{Src: 0, Dst: 1}, 0, []uint8{1}) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("publish against a mute server succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked past every RPC deadline: roundTrip ignores deadlines")
	}
	if got := reg.Counter("hub_rpc_retries_total").Value(); got != 2 {
		t.Errorf("hub_rpc_retries_total = %d, want 2 (3 attempts)", got)
	}
	if got := reg.Counter("hub_rpc_failures_total").Value(); got != 1 {
		t.Errorf("hub_rpc_failures_total = %d, want 1", got)
	}
}

// TestClientReconnect kills the server mid-session, restarts it on the same
// address with the same backing hub, and verifies the client transparently
// reconnects and completes the RPC.
func TestClientReconnect(t *testing.T) {
	hub := NewLocal()
	srv, err := NewServer(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	reg := obs.NewRegistry()
	cfg := fastRetry(reg)
	cfg.MaxAttempts = 10
	c, err := DialConfig(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Publish(ReqID{}, Key{Src: 0, Dst: 1, Tag: 7}, 0, []uint8{0xaa}); err != nil {
		t.Fatal(err)
	}

	// Outage: the server dies and comes back on the same address, keeping
	// its state (as a restarted head-node hub would after reloading).
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(hub, addr)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()

	masks, ok, err := c.Poll(ReqID{}, Key{Src: 0, Dst: 1, Tag: 7}, 0)
	if err != nil || !ok || masks[0] != 0xaa {
		t.Fatalf("poll after restart = %v, %v, %v", masks, ok, err)
	}
	if got := reg.Counter("hub_reconnects_total").Value(); got < 1 {
		t.Errorf("hub_reconnects_total = %d, want >= 1", got)
	}
}

// TestClientCloseIdempotent double-closes and then uses the client.
func TestClientCloseIdempotent(t *testing.T) {
	srv, err := NewServer(NewLocal(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(ReqID{}, Key{}, 0, nil); err == nil {
		t.Error("publish on a closed client succeeded")
	}
}

// TestServerCloseIdempotent closes a busy server from several goroutines at
// once; every Close must return and no serve goroutine may leak (the -race
// build of this test is the satellite's acceptance check).
func TestServerCloseIdempotent(t *testing.T) {
	srv, err := NewServer(NewLocal(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Busy clients hammering the server while it shuts down.
	var cwg sync.WaitGroup
	for i := 0; i < 4; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			c, err := DialConfig(srv.Addr(), ClientConfig{MaxAttempts: 1, RPCTimeout: time.Second})
			if err != nil {
				return
			}
			defer c.Close()
			for j := 0; j < 100; j++ {
				if err := c.Publish(ReqID{}, Key{Src: i, Dst: j}, 0, []uint8{1}); err != nil {
					return // server went away: expected
				}
			}
		}(i)
	}

	time.Sleep(10 * time.Millisecond) // let some traffic flow
	var swg sync.WaitGroup
	for i := 0; i < 3; i++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			if err := srv.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	swg.Wait()
	cwg.Wait()
}

// TestServerDrainDeliversResponse verifies graceful drain: a request the
// server processed before Close gets its response even when Close lands
// immediately after — a retrying client must never see a consumed poll
// vanish.
func TestServerDrainDeliversResponse(t *testing.T) {
	for i := 0; i < 20; i++ {
		hub := NewLocal()
		srv, err := NewServer(hub, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialConfig(srv.Addr(), ClientConfig{MaxAttempts: 1, RPCTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		errCh := make(chan error, 1)
		go func() { errCh <- c.Publish(ReqID{}, Key{Src: 0, Dst: 1}, 0, []uint8{1}) }()
		srv.Close()
		// Either the publish lost the race (transport error, hub untouched)
		// or it won (response delivered, hub has the entry) — but it must
		// never succeed-without-response or hang.
		err = <-errCh
		if pending := hub.Stats().Pending; err == nil && pending != 1 {
			t.Fatalf("iteration %d: publish acked but hub has %d pending", i, pending)
		}
		c.Close()
	}
}

// TestServerIdleTimeout verifies that a silent connection is dropped once
// the configured idle deadline passes.
func TestServerIdleTimeout(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := NewServerConfig(NewLocal(), "127.0.0.1:0", ServerConfig{
		Obs:         reg,
		IdleTimeout: 50 * time.Millisecond,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server wrote to an idle connection")
	}
	if got := reg.Counter("tainthub_idle_disconnects_total").Value(); got != 1 {
		t.Errorf("tainthub_idle_disconnects_total = %d, want 1", got)
	}
}

// TestWireBusyHonored: the client treats a busy response as retryable and
// waits out the server's retry-after hint; once capacity frees, the RPC
// succeeds without surfacing an error to the caller.
func TestWireBusyHonored(t *testing.T) {
	hub := NewLocalLimits(Limits{MaxPending: 1, RetryAfter: 5 * time.Millisecond}, nil)
	srv, err := NewServer(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	cfg := fastRetry(reg)
	cfg.MaxAttempts = 20
	c, err := DialConfig(srv.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	k := Key{Src: 0, Dst: 1}
	if err := c.Publish(ReqID{Client: 1, Seq: 1}, k, 0, []uint8{1}); err != nil {
		t.Fatal(err)
	}
	// The namespace is full; free it shortly after the publish starts
	// retrying against the busy signal.
	go func() {
		time.Sleep(20 * time.Millisecond)
		_ = hub.Retire(0, 1)
	}()
	if err := c.Publish(ReqID{Client: 1, Seq: 2}, k, 1, []uint8{2}); err != nil {
		t.Fatalf("publish through transient busy: %v", err)
	}
	if got := reg.Counter("hub_rpc_retries_total").Value(); got == 0 {
		t.Error("busy response did not register as a retry")
	}
	if got := reg.Counter("hub_reconnects_total").Value(); got != 0 {
		t.Errorf("busy retry reconnected %d times; the connection was fine", got)
	}
}

// TestWireBusyExhaustsAttempts: a persistently busy server eventually
// surfaces as an RPC failure, not an infinite stall.
func TestWireBusyExhaustsAttempts(t *testing.T) {
	hub := NewLocalLimits(Limits{MaxPending: 1, RetryAfter: time.Millisecond}, nil)
	srv, err := NewServer(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialConfig(srv.Addr(), fastRetry(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := Key{Src: 0, Dst: 1}
	if err := c.Publish(ReqID{Client: 1, Seq: 1}, k, 0, []uint8{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(ReqID{Client: 1, Seq: 2}, k, 1, []uint8{2}); err == nil {
		t.Fatal("publish against a permanently busy hub succeeded")
	}
}

// TestWireFrameLimitResync: an oversized request is refused with an error
// response, counted as malformed, and the connection keeps working for
// subsequent well-formed frames.
func TestWireFrameLimitResync(t *testing.T) {
	reg := obs.NewRegistry()
	hub := NewLocal()
	srv, err := NewServerConfig(hub, "127.0.0.1:0", ServerConfig{
		Obs:           reg,
		MaxFrameBytes: 1 << 10,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))

	// An oversized frame (a legal JSON publish, just too big for the limit).
	big := make([]byte, 4<<10)
	for i := range big {
		big[i] = 'A'
	}
	if _, err := conn.Write([]byte(`{"op":"publish","masks":"` + string(big) + `"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatalf("oversized frame not refused: %+v", resp)
	}
	if got := reg.Counter("tainthub_malformed_requests_total").Value(); got != 1 {
		t.Errorf("tainthub_malformed_requests_total = %d, want 1", got)
	}

	// The same connection must still serve a valid request.
	if _, err := conn.Write([]byte(`{"op":"stats"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	line, err = br.ReadString('\n')
	if err != nil {
		t.Fatalf("connection dead after oversized frame: %v", err)
	}
	resp = response{}
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Stats == nil {
		t.Errorf("stats after resync = %+v", resp)
	}
}

// TestServerAbort: Abort must hard-stop the server (for crash drills) and
// leave clients to their retry logic against a replacement.
func TestServerAbort(t *testing.T) {
	hub := NewLocal()
	srv, err := NewServer(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cfg := fastRetry(obs.NewRegistry())
	cfg.MaxAttempts = 10
	c, err := DialConfig(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Abort()
	srv2, err := NewServer(hub, addr)
	if err != nil {
		t.Fatalf("restart after abort: %v", err)
	}
	defer srv2.Close()
	if err := c.Publish(ReqID{Client: 1, Seq: 1}, Key{Src: 0, Dst: 1}, 0, []uint8{1}); err != nil {
		t.Fatalf("publish after abort+restart: %v", err)
	}
}
