package tainthub

import (
	"bytes"
	"net"
	"testing"

	"chaser/internal/obs"
	"chaser/internal/tainthub/codec"
)

// pollRepeatedly is the guarantee the reply cache used to approximate: a
// poll repeated any number of times, under one ReqID or under fresh ones,
// returns the published masks every time. (The cache stopped protecting a
// client at its 257th reply.)
func pollRepeatedly(t *testing.T, h Hub, k Key, seq uint64, want []uint8) {
	t.Helper()
	const repeats = 1000
	before := h.Stats()
	same := ReqID{Client: 7, Seq: 1}
	for i := 0; i < repeats; i++ {
		for _, id := range []ReqID{same, {Client: 7, Seq: uint64(i + 2)}, {}} {
			masks, ok, err := h.Poll(id, k, seq)
			if err != nil || !ok || !bytes.Equal(masks, want) {
				t.Fatalf("poll %d under %+v = %v, %v, %v; want %v", i, id, masks, ok, err, want)
			}
		}
	}
	st := h.Stats()
	if st.Pending != 1 || st.Published != 1 || st.Polls-before.Polls != 3*repeats || st.Hits-before.Hits != 3*repeats {
		t.Errorf("stats after %d polls = %+v (before: %+v)", 3*repeats, st, before)
	}
}

func TestLocalIdempotentPoll(t *testing.T) {
	h := NewLocal()
	k := Key{Src: 0, Dst: 1, Tag: 2, NS: 4}
	want := []uint8{0xaa, 0, 0x55}
	if err := h.Publish(ReqID{Client: 1, Seq: 1}, k, 3, want); err != nil {
		t.Fatal(err)
	}
	pollRepeatedly(t, h, k, 3, want)
}

// TestDurableIdempotentPoll: the polls write nothing, and the same poll
// against the process reborn after a kill -9 reads the same bytes.
func TestDurableIdempotentPoll(t *testing.T) {
	path := durablePath(t)
	h, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Src: 0, Dst: 1, Tag: 2}
	want := []uint8{0xbe, 0xef}
	if err := h.Publish(ReqID{Client: 77, Seq: 4}, k, 0, want); err != nil {
		t.Fatal(err)
	}
	size := h.WALSize()
	pollRepeatedly(t, h, k, 0, want)
	if got := h.WALSize(); got != size {
		t.Errorf("polls grew the WAL from %d to %d bytes", size, got)
	}
	if err := h.Abandon(); err != nil {
		t.Fatal(err)
	}
	h2, err := OpenDurable(path, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	masks, ok, err := h2.Poll(ReqID{Client: 77, Seq: 5}, k, 0)
	if err != nil || !ok || !bytes.Equal(masks, want) {
		t.Fatalf("poll across restart = %v, %v, %v", masks, ok, err)
	}
}

// TestWireIdempotentPoll: over TCP in both formats, including the case the
// reply cache existed for — the server answered a poll but the response was
// lost with the connection, and the retry arrives on a new one.
func TestWireIdempotentPoll(t *testing.T) {
	for _, wire := range []codec.Format{codec.FormatJSON, codec.FormatBinary} {
		t.Run(wire.String(), func(t *testing.T) {
			hub := NewLocal()
			srv, err := NewServer(hub, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			k := Key{Src: 0, Dst: 1, Tag: 2}
			if err := hub.Publish(ReqID{Client: 1, Seq: 1}, k, 0, []uint8{0xab}); err != nil {
				t.Fatal(err)
			}

			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			frame := `{"op":"poll","client":7,"req":1,"src":0,"dst":1,"tag":2,"seq":0}` + "\n"
			if _, err := conn.Write([]byte(frame)); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Read(make([]byte, 256)); err != nil {
				t.Fatal(err)
			}
			conn.Close() // the answered poll's response is "lost"
			if st := hub.Stats(); st.Hits != 1 || st.Pending != 1 {
				t.Fatalf("after the lost poll: %+v", st)
			}

			c, err := DialConfig(srv.Addr(), ClientConfig{Wire: wire})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			pollRepeatedly(t, c, k, 0, []uint8{0xab})
		})
	}
}

// TestRetireRangeExact: Retire drops [lo, hi) and nothing else, any number of
// times.
func TestRetireRangeExact(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewLocalLimits(Limits{}, reg)
	for ns := 8; ns <= 13; ns++ {
		for seq := uint64(0); seq < 3; seq++ {
			if err := h.Publish(ReqID{}, Key{Src: 0, Dst: 1, NS: ns}, seq, []uint8{uint8(ns)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		if err := h.Retire(10, 12); err != nil {
			t.Fatal(err)
		}
		if st := h.Stats(); st.Pending != 12 || st.Published != 18 || st.Evicted != 0 {
			t.Fatalf("stats after retire %d = %+v", i, st)
		}
	}
	for ns := 8; ns <= 13; ns++ {
		_, ok, _ := h.Poll(ReqID{}, Key{Src: 0, Dst: 1, NS: ns}, 1)
		if want := ns < 10 || ns >= 12; ok != want {
			t.Errorf("namespace %d stored = %v, want %v", ns, ok, want)
		}
	}
	if got := reg.Counter("tainthub_retired_total").Value(); got != 6 {
		t.Errorf("tainthub_retired_total = %d, want 6", got)
	}
	// Empty and inverted ranges retire nothing.
	_ = h.Retire(9, 9)
	_ = h.Retire(13, 8)
	if st := h.Stats(); st.Pending != 12 {
		t.Errorf("empty ranges retired entries: %+v", st)
	}
	// A retired namespace takes new entries like a fresh one.
	if err := h.Publish(ReqID{}, Key{Src: 0, Dst: 1, NS: 10}, 0, []uint8{1}); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Pending != 13 || st.Published != 19 {
		t.Errorf("stats after republish = %+v", st)
	}
}

// TestDurableRetireLoggedAndReplayed: a retire is a WAL record — a hub killed
// after it comes back without the entries, a hub killed before it comes back
// with them — and it survives a snapshot.
func TestDurableRetireLoggedAndReplayed(t *testing.T) {
	path := durablePath(t)
	reg := obs.NewRegistry()
	open := func() *Durable {
		t.Helper()
		h, err := OpenDurable(path, DurableConfig{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	publish := func(h *Durable, ns int) {
		t.Helper()
		for seq := uint64(0); seq < 4; seq++ {
			if err := h.Publish(ReqID{}, Key{Src: 1, Dst: 2, Tag: 3, NS: ns}, seq, []uint8{1, 2}); err != nil {
				t.Fatal(err)
			}
		}
	}

	h := open()
	publish(h, 20)
	publish(h, 21)
	if err := h.Abandon(); err != nil { // killed before the retire
		t.Fatal(err)
	}
	h = open()
	if st := h.Stats(); st.Pending != 8 {
		t.Fatalf("publish without retire recovered %+v, want 8 pending", st)
	}
	records := reg.Counter("tainthub_wal_records_total").Value()
	if err := h.Retire(20, 21); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("tainthub_wal_records_total").Value(); got != records+1 {
		t.Errorf("retire wrote %d WAL records, want 1", got-records)
	}
	if err := h.Abandon(); err != nil { // killed after it
		t.Fatal(err)
	}
	h = open()
	if st := h.Stats(); st.Pending != 4 {
		t.Fatalf("retire not replayed: %+v", st)
	}
	if _, ok, _ := h.Poll(ReqID{}, Key{Src: 1, Dst: 2, Tag: 3, NS: 21}, 0); !ok {
		t.Error("the neighbouring namespace went with the retired one")
	}
	if err := h.Retire(21, 22); err != nil {
		t.Fatal(err)
	}
	if err := h.Snapshot(); err != nil {
		t.Fatal(err)
	}
	empty := h.WALSize()
	if err := h.Abandon(); err != nil {
		t.Fatal(err)
	}
	h = open()
	if st := h.Stats(); st.Pending != 0 || st.Published != 8 {
		t.Errorf("after retire + snapshot: %+v", st)
	}
	// With everything retired the compacted log is its header and counters.
	if empty > 64 {
		t.Errorf("compacted log of an empty hub is %d bytes", empty)
	}
	// The other order: entries in the snapshot, their retire in the log after.
	publish(h, 22)
	if err := h.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := h.Retire(22, 23); err != nil {
		t.Fatal(err)
	}
	if err := h.Abandon(); err != nil {
		t.Fatal(err)
	}
	h = open()
	defer h.Close()
	if st := h.Stats(); st.Pending != 0 || st.Published != 12 {
		t.Errorf("retire replayed over a snapshot holding its entries: %+v", st)
	}
}

// TestWireRetire: the retire op in both formats, alone and inside a batch
// with the ops around it.
func TestWireRetire(t *testing.T) {
	for _, wire := range []codec.Format{codec.FormatJSON, codec.FormatBinary} {
		t.Run(wire.String(), func(t *testing.T) {
			hub := NewLocal()
			srv, err := NewServer(hub, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c, err := DialConfig(srv.Addr(), ClientConfig{Wire: wire})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for ns := 0; ns < 4; ns++ {
				if err := WithNamespace(c, ns).Publish(ReqID{Client: 5, Seq: uint64(ns + 1)}, Key{Src: 0, Dst: 1}, 0, []uint8{9}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				if err := c.Retire(1, 3); err != nil {
					t.Fatal(err)
				}
			}
			if st := c.Stats(); st.Pending != 2 {
				t.Errorf("stats after retire = %+v", st)
			}
			batch := codec.Request{Op: codec.OpBatch, Batch: []codec.Request{
				{Op: codec.OpRetire, NS: 0, NSEnd: 1},
				{Op: codec.OpPoll, Client: 5, Req: 9, Src: 0, Dst: 1, NS: 3},
			}}
			resp := srv.handle(batch)
			if len(resp.Batch) != 2 || !resp.Batch[0].OK || !resp.Batch[1].Found {
				t.Errorf("batch with a retire = %+v", resp)
			}
			if st := hub.Stats(); st.Pending != 1 {
				t.Errorf("stats after batched retire = %+v", st)
			}
		})
	}
}

// TestServerRetireUnsupported: a hub without the optional operation refuses
// it with an application error; the connection and the client survive.
func TestServerRetireUnsupported(t *testing.T) {
	srv, err := NewServer(WithNamespace(NewLocal(), 1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Retire(0, 10); err == nil {
		t.Error("retire on a hub that cannot retire succeeded")
	}
	if err := c.Publish(ReqID{}, Key{}, 0, []uint8{1}); err != nil {
		t.Errorf("publish after the refused retire: %v", err)
	}
}
