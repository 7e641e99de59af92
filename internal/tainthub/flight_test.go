package tainthub

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"chaser/internal/obs"
	"chaser/internal/tainthub/codec"
	"chaser/internal/tainthub/hubtest"
)

// flightMasks are the masks of the i-th test flight: no two flights share
// them, so an answer that belongs to another flow shows.
func flightMasks(i int) []uint8 {
	return []uint8{uint8(i), uint8(i >> 8), 0, 0xa5, uint8(3 * i)}
}

// startFlight starts the i-th test flight: its own flow, its own namespace.
func startFlight(h FlightStarter, i int) Flight {
	return h.StartFlight(ReqID{Client: 9, Seq: uint64(2*i + 1)}, ReqID{Client: 9, Seq: uint64(2*i + 2)},
		Key{Src: i % 4, Dst: (i + 1) % 4, Tag: i, NS: i}, uint64(i), flightMasks(i))
}

// wantFlight fails unless the i-th test flight settled with its own masks.
func wantFlight(t *testing.T, i int, res FlightResult) {
	t.Helper()
	switch {
	case res.PublishErr != nil || res.PollErr != nil:
		t.Errorf("flight %d: publish %v, poll %v", i, res.PublishErr, res.PollErr)
	case !res.Found:
		t.Errorf("flight %d: published and acknowledged, not found", i)
	case !bytes.Equal(res.Masks, flightMasks(i)):
		t.Errorf("flight %d: masks %v, want %v", i, res.Masks, flightMasks(i))
	}
}

// TestFlightsAnsweredInOrder: flights started before any is collected are
// each answered with their own masks, whatever order they are collected in,
// and each crossed the wire as one frame carrying both requests.
func TestFlightsAnsweredInOrder(t *testing.T) {
	for _, wire := range []codec.Format{codec.FormatBinary, codec.FormatJSON} {
		t.Run(wire.String(), func(t *testing.T) {
			hub := NewLocal()
			srv, err := NewServer(hub, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			proxy, err := hubtest.NewProxy(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()
			c, err := DialConfig(proxy.Addr(), ClientConfig{Wire: wire})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// More flights than the send queue or the in-flight window hold.
			const n = 200
			view := WithNamespace(c, 0).(FlightStarter)
			flights := make([]Flight, n)
			for i := range flights {
				if i%2 == 0 {
					flights[i] = startFlight(c, i)
				} else {
					// The namespaced view forwards: flight i lives in namespace 0
					// there, under a key no other flight has.
					flights[i] = view.StartFlight(ReqID{Client: 9, Seq: uint64(2*i + 1)}, ReqID{Client: 9, Seq: uint64(2*i + 2)},
						Key{Src: i, Dst: i + 1, Tag: i}, uint64(i), flightMasks(i))
				}
			}
			for _, i := range scrambled(n) {
				wantFlight(t, i, flights[i].Collect())
			}
			if st := hub.Stats(); st.Published != n || st.Polls != n || st.Hits != n {
				t.Errorf("hub saw %+v, want %d publishes, polls and hits", st, n)
			}
			if proxy.Requests() != 2*n || proxy.Frames() > n {
				t.Errorf("%d flights crossed as %d requests in %d frames, want %d requests in at most %d frames",
					n, proxy.Requests(), proxy.Frames(), 2*n, n)
			}
		})
	}
}

// scrambled is a fixed permutation of [0, n), n coprime to 77: collection
// order must not matter.
func scrambled(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (i*77 + 13) % n
	}
	return out
}

// TestFlightIsOneFrame: a flight started on an idle session is one request
// frame — by construction, not by the writer happening to find its two calls
// adjacent — where the two synchronous calls are two.
func TestFlightIsOneFrame(t *testing.T) {
	srv, err := NewServer(NewLocal(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := hubtest.NewProxy(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// MaxBatch 1 disables the writer's coalescing; a flight still shares a frame.
	c, err := DialConfig(proxy.Addr(), ClientConfig{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 25
	for i := 0; i < n; i++ {
		wantFlight(t, i, startFlight(c, i).Collect())
	}
	if proxy.Frames() != n || proxy.Requests() != 2*n {
		t.Errorf("%d flights: %d frames, %d requests; want %d and %d", n, proxy.Frames(), proxy.Requests(), n, 2*n)
	}
	res := SettleFlight(c, ReqID{}, ReqID{}, Key{Src: 1, Dst: 2, NS: 1000}, 0, flightMasks(1))
	wantFlight(t, 1, res)
	if proxy.Frames() != n+2 {
		t.Errorf("a synchronous publish and poll took %d frames, want 2", proxy.Frames()-n)
	}
}

// TestFlightsSurviveHubCrash: the durable hub's server is aborted — responses
// unsent, the hub abandoned with no final snapshot — with flights in flight,
// more are started while nothing listens, and the hub is reopened from its
// WAL on the same address. Every flight still settles, through the retrying
// path, with its own masks and never another flow's, and no poll finds an
// acknowledged publish missing.
func TestFlightsSurviveHubCrash(t *testing.T) {
	path := durablePath(t)
	durable, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(durable, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	reg := obs.NewRegistry()
	cfg := fastRetry(reg)
	cfg.MaxAttempts, cfg.RPCTimeout = 40, 2*time.Second
	c, err := DialConfig(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 120
	flights := make([]Flight, 0, n)
	for i := 0; i < n/3; i++ {
		flights = append(flights, startFlight(c, i))
	}
	// Some of those have been answered, some are on the wire, some queued.
	srv.Abort()
	if err := durable.Abandon(); err != nil {
		t.Fatal(err)
	}
	for i := n / 3; i < n; i++ {
		flights = append(flights, startFlight(c, i)) // onto a dead session, or none
	}
	reborn, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	var srv2 *Server
	for i := 0; ; i++ {
		if srv2, err = NewServer(reborn, addr); err == nil {
			break
		}
		if i >= 100 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	defer srv2.Close()

	for i, f := range flights {
		wantFlight(t, i, f.Collect())
	}
	if got := reg.Counter("hub_rpc_retries_total").Value(); got == 0 {
		t.Error("no flight went through the retrying path")
	}
	if got := reg.Counter("hub_rpc_failures_total").Value(); got != 0 {
		t.Errorf("hub_rpc_failures_total = %d", got)
	}
	// The reborn hub holds every flight's entry exactly once.
	if st := reborn.Stats(); st.Pending != n {
		t.Errorf("reborn hub holds %d entries, want %d (%+v)", st.Pending, n, st)
	}
}

// TestFlightBusyAndPayload: a flight whose publish the hub answers busy, or
// refuses as oversized, settles as the synchronous Publish does: the busy one
// retried after the hub's hint until the namespace has room (its poll then
// made afresh, behind the publish that landed), the oversized one failed at
// once with the typed permanent error and never polled.
func TestFlightBusyAndPayload(t *testing.T) {
	hub := NewLocalLimits(Limits{MaxPending: 1, MaxPayload: 8, RetryAfter: 5 * time.Millisecond}, nil)
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

	k := Key{Src: 0, Dst: 1, NS: 5}
	if err := c.Publish(ReqID{Client: 1, Seq: 1}, k, 0, []uint8{1}); err != nil {
		t.Fatal(err)
	}
	busy := c.StartFlight(ReqID{Client: 1, Seq: 2}, ReqID{Client: 1, Seq: 3}, k, 1, []uint8{2, 3})
	go func() {
		time.Sleep(20 * time.Millisecond)
		_ = hub.Retire(5, 6)
	}()
	res := busy.Collect()
	if res.PublishErr != nil || res.PollErr != nil || !res.Found || !bytes.Equal(res.Masks, []uint8{2, 3}) {
		t.Errorf("flight through a transient busy = %+v", res)
	}
	if got := reg.Counter("hub_rpc_retries_total").Value(); got == 0 {
		t.Error("the busy reply did not register as a retry")
	}
	if got := reg.Counter("hub_reconnects_total").Value(); got != 0 {
		t.Errorf("the busy retry reconnected %d times; the connection was fine", got)
	}

	// Persistently busy: the same *BusyError the synchronous call ends in.
	full := c.StartFlight(ReqID{Client: 1, Seq: 4}, ReqID{Client: 1, Seq: 5}, k, 2, []uint8{4}).Collect()
	syncErr := c.Publish(ReqID{Client: 1, Seq: 6}, k, 2, []uint8{4})
	var fb, sb *BusyError
	if !errors.As(full.PublishErr, &fb) || !errors.As(syncErr, &sb) || *fb != *sb {
		t.Errorf("busy flight ended in %v, the synchronous publish in %v", full.PublishErr, syncErr)
	}

	retries, polls := reg.Counter("hub_rpc_retries_total").Value(), hub.Stats().Polls
	big := make([]uint8, 64)
	over := c.StartFlight(ReqID{Client: 1, Seq: 7}, ReqID{Client: 1, Seq: 8}, Key{Src: 0, Dst: 1, NS: 6}, 0, big).Collect()
	syncErr = c.Publish(ReqID{Client: 1, Seq: 9}, Key{Src: 0, Dst: 1, NS: 6}, 0, big)
	var fp, sp *codec.PayloadError
	if !errors.As(over.PublishErr, &fp) || !errors.As(syncErr, &sp) || *fp != *sp {
		t.Errorf("oversized flight ended in %v, the synchronous publish in %v", over.PublishErr, syncErr)
	}
	if got := reg.Counter("hub_rpc_retries_total").Value(); got != retries {
		t.Errorf("a permanent payload refusal was retried %d times", got-retries)
	}
	// The refused flight's poll rode its frame (one poll); nothing polled again.
	if got := hub.Stats().Polls - polls; got != 1 {
		t.Errorf("%d polls behind a refused publish, want the one aboard the flight's frame", got)
	}
}

// TestFlightClaimedBackNotReused: a flight whose session dies with no answer
// claims its call back, and a claimed-back call never returns to the pool —
// the dead session's queues may still hold it.
func TestFlightClaimedBackNotReused(t *testing.T) {
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
	cfg := fastRetry(obs.NewRegistry())
	cfg.MaxAttempts = 1
	c, err := DialConfig(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f := startFlight(c, 1).(*clientFlight)
	cl := f.cl
	if cl == nil {
		t.Fatal("the flight was not enqueued")
	}
	if res := f.Collect(); res.PublishErr == nil {
		t.Fatal("a flight against a mute server settled")
	}
	for i := 0; i < 1000; i++ {
		if got := callPool.Get().(*call); got == cl {
			t.Fatal("a claimed-back call came out of the pool")
		}
	}
}

// TestFlightsLeaveNothingBehind: flights hold no goroutine and no armed timer
// of their own, collected late, collected after their session is gone, or
// never collected at all.
func TestFlightsLeaveNothingBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		srv, err := NewServer(NewLocal(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := DialConfig(srv.Addr(), fastRetry(nil))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		const n = 300
		flights := make([]Flight, n)
		for i := range flights {
			flights[i] = startFlight(c, i)
		}
		if got := runtime.NumGoroutine(); got > before+8 {
			t.Errorf("%d goroutines with %d flights in flight, %d before: a flight costs a goroutine", got, n, before)
		}
		// A third are collected, as a run's drain does for the flights no
		// receive collected; a third after the client is closed; a third never.
		for i := 0; i < n/3; i++ {
			wantFlight(t, i, flights[i].Collect())
		}
		c.Close()
		for i := n / 3; i < 2*n/3; i++ {
			if res := flights[i].Collect(); res.PublishErr != nil && !errors.Is(res.PublishErr, errClientClosed) {
				t.Errorf("flight %d after Close: %v", i, res.PublishErr)
			}
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the flights, %d before:\n%s", got, before, buf[:runtime.Stack(buf, true)])
	}
}
