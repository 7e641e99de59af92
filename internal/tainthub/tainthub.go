// Package tainthub implements the TaintHub: the central service that stores
// and shares the taint status of MPI messages between Chaser instances
// supervising different ranks (Fig. 5 of the paper).
//
// When a hooked MPI_Send observes a tainted buffer, Chaser publishes the
// message's per-byte taint masks keyed by (source, dest, tag) plus a
// per-key sequence number; when the matching MPI_Recv completes on the
// receiving rank, Chaser polls the hub and re-marks the taint locally so
// propagation continues across the process boundary. Clean messages are
// never published and never polled, which is what keeps the tracing overhead
// low: the contract is one publisher per flow — the Chaser supervising the
// world, which mints every (source, dest, tag, sequence) it publishes — so
// that Chaser knows which receives can possibly hit and asks the hub about
// those alone (core's per-run hub view). A hub therefore sees two calls per
// tainted message and none per clean one; Poll still answers ok=false for a
// message nobody published, but for campaign traffic a miss now means an
// entry was lost, and core counts it as one.
//
// Because Poll is destructive (it consumes the stored status), every RPC
// carries a ReqID: a (client, sequence) stamp minted once per logical
// operation and reused verbatim across transport retries. Each hub keeps a
// bounded per-client reply cache, so a retried Poll whose original response
// was lost returns the original masks instead of ok=false — exactly-once
// semantics over an at-least-once transport.
//
// Three implementations are provided: Local (in-process, for single-host
// worlds and tests), Durable (Local plus a write-ahead log and snapshots,
// surviving process death), and a TCP Server/Client pair (the head-node
// deployment of the paper's testbed).
package tainthub

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"chaser/internal/obs"
	"chaser/internal/tainthub/codec"
)

// Key identifies a message flow between two ranks. NS is a namespace
// discriminator allowing many concurrent campaigns (each a separate run of
// the same ranks and tags) to share one hub without collisions; see
// WithNamespace.
type Key struct {
	Src int
	Dst int
	Tag int
	NS  int
}

// ReqID identifies one logical hub RPC for exactly-once replay protection.
// Client is a process-unique caller identity (see NewClientID); Seq
// increases monotonically per client and is minted once per logical
// operation — a transport retry of the same operation re-sends the same
// ReqID, so the hub can serve the original reply instead of re-executing a
// destructive Poll. The zero ReqID disables replay protection for that
// call (used by tooling that never retries).
type ReqID struct {
	Client uint64
	Seq    uint64
}

var (
	// clientIDBase is random per process (the global math/rand source is
	// randomly seeded), making client identities unique across restarted
	// campaign processes sharing one hub; the odd multiplier spreads the
	// per-process counter over the full 64-bit space.
	clientIDBase = rand.Uint64() | 1
	clientIDSeq  atomic.Uint64
)

// NewClientID returns a hub client identity that is unique within this
// process and, with overwhelming probability, across processes. Core mints
// one per supervised run.
func NewClientID() uint64 {
	for {
		if id := clientIDBase + clientIDSeq.Add(1)*0x9e3779b97f4a7c15; id != 0 {
			return id
		}
	}
}

// Hub is the interface Chaser uses to coordinate message taint.
type Hub interface {
	// Publish records the taint masks of the seq-th message (0-based,
	// counted per key) sent on the given flow. Republishing under the same
	// ReqID is a no-op (the original ack is replayed).
	Publish(id ReqID, k Key, seq uint64, masks []uint8) error
	// Poll retrieves and removes the taint masks of the seq-th message of
	// the flow. ok is false when that message was never published (clean).
	// Re-polling under the same ReqID returns the original masks.
	Poll(id ReqID, k Key, seq uint64) (masks []uint8, ok bool, err error)
	// Stats returns a snapshot of hub activity.
	Stats() Stats
}

// Stats counts hub activity. It is defined in the codec package (its
// fields cross the wire and live in snapshots) and aliased here as the
// public name.
type Stats = codec.Stats

// BusyError reports that a namespace is at its pending-entry or byte
// limit. The caller should wait RetryAfter and retry — the TCP client does
// so transparently.
type BusyError struct {
	NS         int
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("tainthub: namespace %d over pending limit, retry after %s", e.NS, e.RetryAfter)
}

// PayloadError reports a Publish whose masks exceed the hub's payload
// limit. It is permanent: retrying the same payload cannot succeed.
type PayloadError struct {
	Size  int
	Limit int
}

func (e *PayloadError) Error() string {
	return fmt.Sprintf("tainthub: payload %d bytes exceeds limit %d", e.Size, e.Limit)
}

// Limits bounds a hub's memory. The zero value means "no entry/byte/TTL
// limits" with default reply-cache sizing — the right call for private
// in-process hubs; shared head-node deployments should set explicit caps.
type Limits struct {
	// MaxPending caps stored entries per namespace (0 = unlimited). A
	// Publish over the cap fails with *BusyError.
	MaxPending int
	// MaxPendingBytes caps stored mask bytes per namespace (0 = unlimited).
	MaxPendingBytes int64
	// MaxPayload caps one Publish's mask bytes (0 = unlimited). Oversized
	// publishes fail with *PayloadError.
	MaxPayload int
	// TTL evicts entries and idle reply caches older than this (0 = never).
	// Crashed ranks leak orphaned entries; TTL is what stops Stats().Pending
	// from growing without bound across a long multi-campaign deployment.
	TTL time.Duration
	// RetryAfter is the backoff hint in BusyError (default 50ms).
	RetryAfter time.Duration
	// ReplyCache is the number of replies of each kind (publish acks,
	// consumed polls) remembered per client for replay protection (default
	// 256).
	ReplyCache int
	// MaxClients caps tracked reply caches; the least recently active
	// client is evicted past it (default 4096).
	MaxClients int
}

func (l Limits) withDefaults() Limits {
	if l.RetryAfter <= 0 {
		l.RetryAfter = 50 * time.Millisecond
	}
	if l.ReplyCache <= 0 {
		l.ReplyCache = 256
	}
	if l.MaxClients <= 0 {
		l.MaxClients = 4096
	}
	return l
}

type entryKey struct {
	k   Key
	seq uint64
}

// Local is an in-process hub. The zero value is not ready; use NewLocal.
type Local struct {
	mu sync.Mutex
	st store
}

var _ Hub = (*Local)(nil)

// NewLocal creates an empty in-process hub with no limits.
func NewLocal() *Local {
	return NewLocalLimits(Limits{}, nil)
}

// NewLocalLimits creates an in-process hub with explicit memory bounds and
// optional telemetry (tainthub_evicted_total, tainthub_dedup_hits_total).
func NewLocalLimits(lim Limits, reg *obs.Registry) *Local {
	return &Local{st: newStore(lim, newHubObs(reg))}
}

// Publish implements Hub.
func (l *Local) Publish(id ReqID, k Key, seq uint64, masks []uint8) error {
	now := time.Now().UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.st.maybeSweep(now)
	if _, dup := l.st.dedup(id, now); dup {
		return nil
	}
	if err := l.st.checkPublish(k, masks); err != nil {
		return err
	}
	l.st.applyPublish(k, seq, masks, now)
	l.st.remember(id, cachedReply{}, now)
	return nil
}

// Poll implements Hub.
func (l *Local) Poll(id ReqID, k Key, seq uint64) ([]uint8, bool, error) {
	now := time.Now().UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.st.maybeSweep(now)
	if rep, dup := l.st.dedup(id, now); dup {
		return rep.masks, rep.found, nil
	}
	masks, ok := l.st.applyConsume(k, seq)
	if !ok {
		return nil, false, nil
	}
	l.st.remember(id, cachedReply{masks: masks, found: true}, now)
	return masks, true, nil
}

// Stats implements Hub.
func (l *Local) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.snapshotStats()
}

// Sweep evicts entries and reply caches older than the configured TTL and
// returns how many were dropped. Eviction also happens opportunistically
// during normal traffic; Sweep exists for idle hubs and tests.
func (l *Local) Sweep() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.sweep(time.Now().UnixNano())
}

// Reset clears all stored statuses and statistics (between campaign runs).
func (l *Local) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.st.reset()
}

// namespaced stamps a fixed namespace onto every key, so concurrent runs
// sharing one hub (e.g. a parallel campaign against a head-node TaintHub
// server) stay isolated from each other.
type namespaced struct {
	hub Hub
	ns  int
}

var _ Hub = namespaced{}

// WithNamespace returns a view of hub whose keys live in namespace ns.
func WithNamespace(hub Hub, ns int) Hub {
	return namespaced{hub: hub, ns: ns}
}

// Publish implements Hub.
func (n namespaced) Publish(id ReqID, k Key, seq uint64, masks []uint8) error {
	k.NS = n.ns
	return n.hub.Publish(id, k, seq, masks)
}

// Poll implements Hub.
func (n namespaced) Poll(id ReqID, k Key, seq uint64) ([]uint8, bool, error) {
	k.NS = n.ns
	return n.hub.Poll(id, k, seq)
}

// Stats implements Hub (shared across namespaces).
func (n namespaced) Stats() Stats { return n.hub.Stats() }
