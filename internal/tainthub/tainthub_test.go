package tainthub

import (
	"bytes"
	"errors"
	"time"

	"chaser/internal/obs"

	"sync"
	"testing"
	"testing/quick"
)

func TestLocalPublishPoll(t *testing.T) {
	h := NewLocal()
	k := Key{Src: 0, Dst: 1, Tag: 5}
	masks := []uint8{0, 0xff, 0x01}
	if err := h.Publish(ReqID{}, k, 0, masks); err != nil {
		t.Fatal(err)
	}
	got, ok, err := h.Poll(ReqID{}, k, 0)
	if err != nil || !ok {
		t.Fatalf("Poll = %v, %v, %v", got, ok, err)
	}
	for i := range masks {
		if got[i] != masks[i] {
			t.Errorf("mask[%d] = %#x, want %#x", i, got[i], masks[i])
		}
	}
	// Poll reads; retiring the namespace removes.
	if again, ok, _ := h.Poll(ReqID{}, k, 0); !ok || !bytes.Equal(again, masks) {
		t.Errorf("second poll = %v, %v; want the same masks", again, ok)
	}
	if err := h.Retire(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := h.Poll(ReqID{}, k, 0); ok {
		t.Error("poll after retire found the status")
	}
}

func TestLocalCleanMessagePollMisses(t *testing.T) {
	h := NewLocal()
	if _, ok, err := h.Poll(ReqID{}, Key{Src: 1, Dst: 0, Tag: 2}, 7); ok || err != nil {
		t.Errorf("poll of unpublished = %v, %v", ok, err)
	}
}

func TestLocalSequencing(t *testing.T) {
	// Message 0 clean (unpublished), message 1 tainted: the receiver's poll
	// for seq 0 must miss and seq 1 must hit.
	h := NewLocal()
	k := Key{Src: 0, Dst: 1, Tag: 0}
	if err := h.Publish(ReqID{}, k, 1, []uint8{0xaa}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := h.Poll(ReqID{}, k, 0); ok {
		t.Error("seq 0 poll hit a seq 1 status")
	}
	got, ok, _ := h.Poll(ReqID{}, k, 1)
	if !ok || got[0] != 0xaa {
		t.Errorf("seq 1 poll = %v, %v", got, ok)
	}
}

func TestLocalKeysAreIndependent(t *testing.T) {
	h := NewLocal()
	_ = h.Publish(ReqID{}, Key{Src: 0, Dst: 1, Tag: 1}, 0, []uint8{1})
	if _, ok, _ := h.Poll(ReqID{}, Key{Src: 0, Dst: 1, Tag: 2}, 0); ok {
		t.Error("poll with different tag hit")
	}
	if _, ok, _ := h.Poll(ReqID{}, Key{Src: 0, Dst: 2, Tag: 1}, 0); ok {
		t.Error("poll with different dst hit")
	}
	if _, ok, _ := h.Poll(ReqID{}, Key{Src: 0, Dst: 1, Tag: 1}, 0); !ok {
		t.Error("correct key missed")
	}
}

func TestLocalStatsAndReset(t *testing.T) {
	h := NewLocal()
	_ = h.Publish(ReqID{}, Key{Src: 0, Dst: 1, Tag: 0}, 0, []uint8{1})
	_ = h.Publish(ReqID{}, Key{Src: 0, Dst: 2, Tag: 0}, 0, []uint8{1})
	_, _, _ = h.Poll(ReqID{}, Key{Src: 0, Dst: 1, Tag: 0}, 0)
	_, _, _ = h.Poll(ReqID{}, Key{Src: 9, Dst: 9, Tag: 9}, 0)
	s := h.Stats()
	if s.Published != 2 || s.Polls != 2 || s.Hits != 1 || s.Pending != 2 {
		t.Errorf("stats = %+v", s)
	}
	h.Reset()
	s = h.Stats()
	if s.Published != 0 || s.Pending != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestLocalPublishCopiesMasks(t *testing.T) {
	h := NewLocal()
	masks := []uint8{1, 2, 3}
	_ = h.Publish(ReqID{}, Key{}, 0, masks)
	masks[0] = 99
	got, _, _ := h.Poll(ReqID{}, Key{}, 0)
	if got[0] != 1 {
		t.Error("hub aliases caller's mask slice")
	}
}

// Property: publish/poll round-trips arbitrary masks for arbitrary keys.
func TestLocalRoundTripQuick(t *testing.T) {
	h := NewLocal()
	f := func(src, dst uint8, tag uint16, seq uint64, masks []uint8) bool {
		k := Key{Src: int(src), Dst: int(dst), Tag: int(tag)}
		if err := h.Publish(ReqID{}, k, seq, masks); err != nil {
			return false
		}
		got, ok, err := h.Poll(ReqID{}, k, seq)
		if err != nil || !ok || len(got) != len(masks) {
			return false
		}
		for i := range masks {
			if got[i] != masks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTCPServerClient(t *testing.T) {
	srv, err := NewServer(NewLocal(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	k := Key{Src: 2, Dst: 3, Tag: 9}
	masks := []uint8{0xde, 0xad, 0, 0xef}
	if err := c.Publish(ReqID{}, k, 4, masks); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Poll(ReqID{}, k, 4)
	if err != nil || !ok {
		t.Fatalf("Poll = %v %v %v", got, ok, err)
	}
	for i := range masks {
		if got[i] != masks[i] {
			t.Errorf("mask[%d] = %#x, want %#x", i, got[i], masks[i])
		}
	}
	if again, ok, err := c.Poll(ReqID{}, k, 4); !ok || err != nil || !bytes.Equal(again, masks) {
		t.Errorf("re-poll = %v, %v, %v; want the same masks", again, ok, err)
	}
	if err := c.Retire(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Poll(ReqID{}, k, 4); ok || err != nil {
		t.Errorf("poll after retire = %v, %v", ok, err)
	}
	st := c.Stats()
	if st.Published != 1 || st.Polls != 3 || st.Hits != 2 || st.Pending != 0 {
		t.Errorf("remote stats = %+v", st)
	}
}

func TestTCPMultipleClients(t *testing.T) {
	srv, err := NewServer(NewLocal(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Four "ranks" publish and poll concurrently, like a real campaign.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			k := Key{Src: r, Dst: (r + 1) % 4, Tag: 0}
			for seq := uint64(0); seq < 50; seq++ {
				if err := c.Publish(ReqID{}, k, seq, []uint8{uint8(r), uint8(seq)}); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for r := 0; r < 4; r++ {
		k := Key{Src: r, Dst: (r + 1) % 4, Tag: 0}
		for seq := uint64(0); seq < 50; seq++ {
			masks, ok, err := c.Poll(ReqID{}, k, seq)
			if err != nil || !ok {
				t.Fatalf("poll r=%d seq=%d: %v %v", r, seq, ok, err)
			}
			if masks[0] != uint8(r) || masks[1] != uint8(seq) {
				t.Fatalf("masks = %v", masks)
			}
		}
	}
}

func TestDialError(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestNamespacedIsolation(t *testing.T) {
	base := NewLocal()
	a := WithNamespace(base, 1)
	b := WithNamespace(base, 2)
	k := Key{Src: 0, Dst: 1, Tag: 5}
	if err := a.Publish(ReqID{}, k, 0, []uint8{0xaa}); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(ReqID{}, k, 0, []uint8{0xbb}); err != nil {
		t.Fatal(err)
	}
	// Each namespace sees only its own status.
	got, ok, _ := b.Poll(ReqID{}, k, 0)
	if !ok || got[0] != 0xbb {
		t.Errorf("ns b = %v, %v", got, ok)
	}
	got, ok, _ = a.Poll(ReqID{}, k, 0)
	if !ok || got[0] != 0xaa {
		t.Errorf("ns a = %v, %v", got, ok)
	}
	// A third namespace sees nothing.
	if _, ok, _ := WithNamespace(base, 3).Poll(ReqID{}, k, 0); ok {
		t.Error("empty namespace polled a status")
	}
	// Stats are shared across namespaces.
	if st := a.Stats(); st.Published != 2 {
		t.Errorf("shared stats = %+v", st)
	}
}

func TestNamespacedOverTCP(t *testing.T) {
	srv, err := NewServer(NewLocal(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := Key{Src: 0, Dst: 1, Tag: 9}
	if err := WithNamespace(c, 7).Publish(ReqID{}, k, 3, []uint8{1}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := WithNamespace(c, 8).Poll(ReqID{}, k, 3); ok {
		t.Error("cross-namespace hit over TCP")
	}
	if _, ok, _ := WithNamespace(c, 7).Poll(ReqID{}, k, 3); !ok {
		t.Error("same-namespace miss over TCP")
	}
}

// TestLocalIdempotentPublish: a repeated publish overwrites its entry; it is
// neither a second entry nor a second Published.
func TestLocalIdempotentPublish(t *testing.T) {
	h := NewLocal()
	k := Key{Src: 0, Dst: 1}
	for _, id := range []ReqID{{Client: 9, Seq: 1}, {Client: 9, Seq: 1}, {Client: 9, Seq: 2}, {}} {
		if err := h.Publish(id, k, 0, []uint8{1}); err != nil {
			t.Fatal(err)
		}
	}
	if st := h.Stats(); st.Published != 1 || st.Pending != 1 {
		t.Errorf("stats after repeated publish = %+v", st)
	}
}

// TestLocalBusyLimit: a namespace over MaxPending refuses publishes with a
// retryable *BusyError carrying the backoff hint; other namespaces are
// unaffected, repeating an accepted publish is not refused, a poll frees
// nothing and retiring the namespace frees it all.
func TestLocalBusyLimit(t *testing.T) {
	h := NewLocalLimits(Limits{MaxPending: 2, RetryAfter: 7 * time.Millisecond}, nil)
	k := Key{Src: 0, Dst: 1, NS: 1}
	for i := 0; i < 2; i++ {
		if err := h.Publish(ReqID{}, k, uint64(i), []uint8{1}); err != nil {
			t.Fatal(err)
		}
	}
	err := h.Publish(ReqID{}, k, 2, []uint8{1})
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("over-limit publish error = %v, want *BusyError", err)
	}
	if be.NS != 1 || be.RetryAfter != 7*time.Millisecond {
		t.Errorf("BusyError = %+v", be)
	}
	// Another namespace still has room.
	if err := h.Publish(ReqID{}, Key{Src: 0, Dst: 1, NS: 2}, 0, []uint8{1}); err != nil {
		t.Errorf("other namespace rejected: %v", err)
	}
	// An overwrite adds no entry, so a retried publish passes at the cap.
	if err := h.Publish(ReqID{}, k, 1, []uint8{1}); err != nil {
		t.Errorf("repeated publish at the cap: %v", err)
	}
	// The cap bounds what the namespace stores, not what is in flight.
	if _, ok, _ := h.Poll(ReqID{}, k, 0); !ok {
		t.Fatal("poll missed")
	}
	if err := h.Publish(ReqID{}, k, 2, []uint8{1}); !errors.As(err, &be) {
		t.Errorf("publish after a poll = %v, want *BusyError", err)
	}
	if err := h.Retire(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := h.Publish(ReqID{}, k, 2, []uint8{1}); err != nil {
		t.Errorf("publish after retiring the namespace: %v", err)
	}
}

// TestLocalByteLimit: MaxPendingBytes is enforced per namespace.
func TestLocalByteLimit(t *testing.T) {
	h := NewLocalLimits(Limits{MaxPendingBytes: 10}, nil)
	k := Key{Src: 0, Dst: 1}
	if err := h.Publish(ReqID{}, k, 0, make([]uint8, 8)); err != nil {
		t.Fatal(err)
	}
	var be *BusyError
	if err := h.Publish(ReqID{}, k, 1, make([]uint8, 8)); !errors.As(err, &be) {
		t.Fatalf("over byte limit error = %v, want *BusyError", err)
	}
}

// TestLocalPayloadLimit: an oversized single publish is rejected with the
// permanent *PayloadError, not the retryable busy signal.
func TestLocalPayloadLimit(t *testing.T) {
	h := NewLocalLimits(Limits{MaxPayload: 4}, nil)
	err := h.Publish(ReqID{}, Key{}, 0, make([]uint8, 5))
	var pe *PayloadError
	if !errors.As(err, &pe) {
		t.Fatalf("oversized publish error = %v, want *PayloadError", err)
	}
	if pe.Size != 5 || pe.Limit != 4 {
		t.Errorf("PayloadError = %+v", pe)
	}
}

// TestLocalTTLEviction: orphaned entries (their rank crashed and will
// never poll) age out, so Pending stops growing across campaigns.
func TestLocalTTLEviction(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewLocalLimits(Limits{TTL: time.Hour}, reg)
	if err := h.Publish(ReqID{}, Key{Src: 0, Dst: 1}, 0, []uint8{1}); err != nil {
		t.Fatal(err)
	}
	if n := h.Sweep(); n != 0 {
		t.Errorf("fresh entry swept (%d evicted)", n)
	}
	// Age the entry past the TTL by rewriting its stamp.
	h.mu.Lock()
	for _, n := range h.st.ns {
		for ek, e := range n.entries {
			e.stamp -= int64(2 * time.Hour)
			n.entries[ek] = e
		}
	}
	h.mu.Unlock()
	if n := h.Sweep(); n != 1 {
		t.Fatalf("swept %d entries, want 1", n)
	}
	st := h.Stats()
	if st.Pending != 0 || st.Evicted != 1 {
		t.Errorf("stats after sweep = %+v", st)
	}
	if got := reg.Counter("tainthub_evicted_total").Value(); got != 1 {
		t.Errorf("tainthub_evicted_total = %d", got)
	}
}
