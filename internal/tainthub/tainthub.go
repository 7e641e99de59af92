// Package tainthub implements the TaintHub: the central service that stores
// and shares the taint status of MPI messages between Chaser instances
// supervising different ranks (Fig. 5 of the paper).
//
// When a hooked MPI_Send observes a tainted buffer, Chaser publishes the
// message's per-byte taint masks keyed by (source, dest, tag) plus a
// per-key sequence number, and with it the poll the matching MPI_Recv will
// want answered; when that receive completes on the receiving rank, Chaser
// re-marks the taint locally with the masks the poll returned, so propagation
// continues across the process boundary. Clean messages are never published
// and never polled, which is what keeps the tracing overhead low: the
// contract is one publisher per flow — the Chaser supervising the world,
// which mints every (source, dest, tag, sequence) it publishes — so that
// Chaser knows which receives can possibly hit and asks the hub about those
// alone (core's per-run hub view). A hub therefore sees two requests per
// tainted message — over TCP one frame, a flight (FlightStarter) — and none
// per clean one; Poll still answers ok=false for a message nobody published,
// but for campaign traffic a miss now means an entry was lost, and core
// counts it as one.
//
// Every operation is idempotent, which is what makes the at-least-once
// transport safe: Publish overwrites, Poll reads the stored status and leaves
// it, and Retire drops whole namespaces. A retry whose original response was
// lost, a second attempt at the same shard, or a poll after a hub crash and
// WAL replay reads the same bytes the first one did, however many polls came
// in between. What bounds the hub's memory is retirement: whoever mints
// namespaces retires them when it is done with them (campaign.Run its shard
// window, cmd/chaser its one namespace), and Limits.TTL collects what a
// crashed owner left behind. Every RPC still carries a ReqID, echoed by the
// server so the pipelined client can verify which call a response answers.
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

// FlowLabel renders one message of a flow the way hub events name it.
func FlowLabel(k Key, seq uint64) string {
	return fmt.Sprintf("%d->%d tag %d seq %d", k.Src, k.Dst, k.Tag, seq)
}

// ReqID identifies one logical hub RPC. Client is a process-unique caller
// identity (see NewClientID); Seq increases monotonically per client and is
// minted once per logical operation — a transport retry re-sends the same
// ReqID. The hub does not interpret it (every operation is idempotent, so a
// repeat needs no recognising): the server echoes it and the pipelined client
// checks the echo against the call it is about to answer. The zero ReqID is
// accepted and skips that check.
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
	// counted per key) sent on the given flow, replacing any it held.
	Publish(id ReqID, k Key, seq uint64, masks []uint8) error
	// Poll reads the taint masks of the seq-th message of the flow and
	// leaves them stored: polling again returns the same masks until the
	// namespace is retired. ok is false when that message was never
	// published (clean). The masks are the hub's own; do not modify them.
	Poll(id ReqID, k Key, seq uint64) (masks []uint8, ok bool, err error)
	// Stats returns a snapshot of hub activity.
	Stats() Stats
}

// Retirer is the optional fourth operation of a hub: Retire drops every
// entry whose namespace is in [lo, hi). It is idempotent, and it is how a
// hub's memory stays proportional to the work in flight — the owner of a
// range of namespaces calls it once it will poll them no more. Local,
// Durable and Client implement it; a Hub that does not simply keeps its
// entries until Limits.TTL (or forever), which costs memory, not results.
type Retirer interface {
	Retire(lo, hi int) error
}

// FlightResult is what a tainted message's two hub calls came to: the
// publish's error and, when there was none, the answer of the poll made
// behind it for the same flow-sequence.
type FlightResult struct {
	PublishErr error
	// Masks, Found and PollErr are Poll's results; the poll is not made
	// behind a publish that failed.
	Masks   []uint8
	Found   bool
	PollErr error
}

// Flight is a publish and the poll its receiver will make, started together
// and not yet waited for.
type Flight interface {
	// Collect waits for whatever of the flight has not come back, retrying as
	// Publish and Poll do, and returns the result. It is called once.
	Collect() FlightResult
}

// FlightStarter is the optional operation of a hub that can put a tainted
// message's publish and poll on their way without waiting for either: the
// sender's hook starts the flight and runs on, and the receiver's either
// collects it or — on a run's first attempt in core — applies the published
// masks at once and leaves the flight to be collected when the run ends.
// The poll is executed after the publish, so it reads what the publish
// stored: the hub, not the caller, still says what the receiver's taint is,
// and a run whose receive applied anything other than the poll's answer is
// run again on the answers collected. Client implements it, and
// WithNamespace forwards it; a hub that does not is asked in place
// (SettleFlight).
type FlightStarter interface {
	StartFlight(publish, poll ReqID, k Key, seq uint64, masks []uint8) Flight
}

// SettleFlight makes a flight's two calls on any hub, here and now: Publish,
// then Poll if it succeeded.
func SettleFlight(h Hub, publish, poll ReqID, k Key, seq uint64, masks []uint8) FlightResult {
	if err := h.Publish(publish, k, seq, masks); err != nil {
		return FlightResult{PublishErr: err}
	}
	var res FlightResult
	res.Masks, res.Found, res.PollErr = h.Poll(poll, k, seq)
	return res
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
// limits" — the right call for private in-process hubs; shared head-node
// deployments should set explicit caps.
type Limits struct {
	// MaxPending caps stored entries per namespace (0 = unlimited). A
	// Publish over the cap fails with *BusyError. Entries stay stored until
	// their namespace is retired (a poll does not free them), so this bounds
	// what one run may publish in total, not what it has in flight.
	MaxPending int
	// MaxPendingBytes caps stored mask bytes per namespace (0 = unlimited).
	MaxPendingBytes int64
	// MaxPayload caps one Publish's mask bytes (0 = unlimited). Oversized
	// publishes fail with *PayloadError.
	MaxPayload int
	// TTL evicts entries older than this (0 = never). An owner that died
	// before retiring its namespaces leaks their entries; TTL is what stops
	// Stats().Pending from growing without bound across a long
	// multi-campaign deployment.
	TTL time.Duration
	// RetryAfter is the backoff hint in BusyError (default 50ms).
	RetryAfter time.Duration
}

func (l Limits) withDefaults() Limits {
	if l.RetryAfter <= 0 {
		l.RetryAfter = 50 * time.Millisecond
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

var (
	_ Hub     = (*Local)(nil)
	_ Retirer = (*Local)(nil)
)

// NewLocal creates an empty in-process hub with no limits.
func NewLocal() *Local {
	return NewLocalLimits(Limits{}, nil)
}

// NewLocalLimits creates an in-process hub with explicit memory bounds and
// optional telemetry (tainthub_evicted_total, tainthub_retired_total).
func NewLocalLimits(lim Limits, reg *obs.Registry) *Local {
	return &Local{st: newStore(lim, newHubObs(reg))}
}

// Publish implements Hub.
func (l *Local) Publish(_ ReqID, k Key, seq uint64, masks []uint8) error {
	now := l.st.clock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.st.maybeSweep(now)
	if err := l.st.checkPublish(k, seq, masks); err != nil {
		return err
	}
	l.st.applyPublish(k, seq, masks, now)
	return nil
}

// Poll implements Hub.
func (l *Local) Poll(_ ReqID, k Key, seq uint64) ([]uint8, bool, error) {
	now := l.st.clock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.st.maybeSweep(now)
	masks, ok := l.st.poll(k, seq)
	return masks, ok, nil
}

// Retire implements Retirer.
func (l *Local) Retire(lo, hi int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.st.applyRetire(lo, hi)
	return nil
}

// Stats implements Hub.
func (l *Local) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.snapshotStats()
}

// Sweep evicts entries older than the configured TTL and returns how many
// were dropped. Eviction also happens opportunistically
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

// WithNamespace returns a view of hub whose keys live in namespace ns. The
// view starts flights when hub does.
func WithNamespace(hub Hub, ns int) Hub {
	n := namespaced{hub: hub, ns: ns}
	if fs, ok := hub.(FlightStarter); ok {
		return namespacedFlights{namespaced: n, starter: fs}
	}
	return n
}

// Base returns the hub a WithNamespace view is a view of, and hub itself when
// it is no such view: two namespaces of one hub have one base.
func Base(hub Hub) Hub {
	switch n := hub.(type) {
	case namespaced:
		return n.hub
	case namespacedFlights:
		return n.hub
	}
	return hub
}

// namespacedFlights is the namespaced view of a hub that is a FlightStarter.
type namespacedFlights struct {
	namespaced
	starter FlightStarter
}

// StartFlight implements FlightStarter.
func (n namespacedFlights) StartFlight(publish, poll ReqID, k Key, seq uint64, masks []uint8) Flight {
	k.NS = n.ns
	return n.starter.StartFlight(publish, poll, k, seq, masks)
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
