package core

import (
	"bytes"
	"fmt"

	"chaser/internal/isa"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
	"chaser/internal/tcg"
	"chaser/internal/trace"
	"chaser/internal/vm"
)

// Cross-rank taint coordination (Fig. 5): Chaser hooks the MPI message
// functions, extracts the message information from the guest's argument
// registers, and shares taint status through the TaintHub.
//
// Sender side (before MPI_Send executes): extract (buf, count, datatype,
// dest, tag); when the buffer is tainted, start the message's flight — the
// publish of (ID, taint status), where ID is (src, dest, tag) plus a per-flow
// sequence number, and the poll its receiver will make for that ID — and run
// on without waiting for the hub.
//
// Receiver side (after MPI_Recv returns): extract (buf, count, datatype,
// source, tag) and take the message's taint — the masks its sender published
// on a run's first attempt over a hub that starts flights, which the drain
// checks against the hub's poll, and the masks the hub's poll returned
// otherwise — and mark the received bytes tainted with it, so propagation
// continues in this rank.
//
// After the world has run, the flights are drained: those nobody collected —
// their receiver ended first — and, on a first attempt, every one.
//
// Both sides of a world go through one worldHub, so only the messages the
// world published cost the hub anything: a clean message costs nothing on
// either side. The hooks run on the world's one goroutine (internal/mpi runs
// one rank at a time), so what they keep is plain data.

// maxHookedMessageBytes bounds the taint scan of MPI buffers: anything
// larger is a fault-corrupted count the runtime will reject, so scanning
// (or allocating masks for) it would only burn memory.
const maxHookedMessageBytes = 64 << 20

// hookedMessageBytes returns the byte length of an MPI buffer of count
// elements, and false when the hooks must leave the call alone: a negative
// count, an unknown datatype, or a length over maxHookedMessageBytes. The
// bound is checked by division — a fault-corrupted count near 2^61 would wrap
// the product back under it.
func hookedMessageBytes(count int64, dtype isa.Datatype) (uint64, bool) {
	if count < 0 || !dtype.Valid() || count > maxHookedMessageBytes/dtype.Size() {
		return 0, false
	}
	return uint64(count * dtype.Size()), true
}

// HubPolicy selects how a run treats TaintHub failures (an unreachable or
// erroring hub after the client's own retries are exhausted).
type HubPolicy int

const (
	// HubDegrade (the default) drops the taint of the affected message and
	// keeps running: the guest's execution is unchanged, only propagation
	// visibility degrades. Every degradation increments
	// core_hub_degraded_total.
	HubDegrade HubPolicy = iota
	// HubFailRun fails the whole run with an error once it completes, so a
	// campaign (or its operator) can tell degraded tracing from sound
	// tracing. A taint the hub acknowledged and then could not produce
	// (core_hub_taint_lost_total) fails the run the same way.
	HubFailRun
)

// String returns the policy name.
func (p HubPolicy) String() string {
	switch p {
	case HubDegrade:
		return "degrade"
	case HubFailRun:
		return "fail"
	}
	return fmt.Sprintf("hubpolicy(%d)", int(p))
}

// flowSeq names one message: the seq-th of its flow, the unit the hub stores.
type flowSeq struct {
	key tainthub.Key
	seq uint64
}

// flight is one tainted message on its way through the hub.
type flight struct {
	// send is the publish side of the provenance graph's cross-rank edge, as
	// the send hook saw it; it is recorded once the publish is known to have
	// been acknowledged.
	send trace.SendRecord
	// masks are the published masks.
	masks []uint8
	// inflight is the flight while the hub's answer has not been asked for;
	// res is the answer afterwards.
	inflight tainthub.Flight
	res      tainthub.FlightResult
}

// confirmed reports whether the hub's answer is what an early receive
// applied: the publish and the poll succeeded, and the poll found the masks
// that were published.
func (f *flight) confirmed() bool {
	r := &f.res
	return r.PublishErr == nil && r.PollErr == nil && r.Found && bytes.Equal(r.Masks, f.masks)
}

// answered is a flight whose answer is already in: a recheck's recorded one.
type answered tainthub.FlightResult

// Collect implements tainthub.Flight.
func (a *answered) Collect() tainthub.FlightResult { return tainthub.FlightResult(*a) }

// msg names the flight's message.
func (f *flight) msg() flowSeq {
	return flowSeq{key: tainthub.Key{Src: f.send.Src, Dst: f.send.Dst, Tag: f.send.Tag}, seq: f.send.Seq}
}

// worldHub is the view of the TaintHub one Chaser's hooks talk through. The
// Chaser supervises every rank of its world and mints every (flow, seq) it
// publishes, so it knows which receives can possibly find a status: start
// records the flow-sequence as it hands the hub the publish and the poll, and
// receive answers "clean" itself, at no cost to the hub, for any
// flow-sequence that was never recorded. The record is kept when the publish
// fails — the hub may have applied it before the error — so the set is a
// superset of what the hub can hold for this world.
//
// A hub that can start a flight (a tainthub.Client, namespaced or not) is
// handed both calls in one frame and answers while the guest runs; any other
// hub — in process, where a call costs less than the hand-over would — is
// asked in place, inside start, and its poll's masks are the ones applied.
// Either way the publish side is settled in publish order: a flight's send
// record is appended, or its failure counted, before those of any flight
// started after it.
//
// One rank runs at a time, so a message's receiver nearly always runs next
// after its sender: waiting for the poll at the receive would stop the world
// for a round trip a message. A run's first attempt over a hub that starts
// flights (early) therefore does not wait. Its receive applies the masks the
// sender published, and the drain collects every flight and checks each such
// receive against the hub's answer before it records anything. When every
// answer confirms the masks applied, the run is the one a waiting receive
// would have produced, and the drain records it. When one does not — the
// publish or the poll failed, the poll found nothing or other masks — the
// drain records nothing and keeps the flights as the run's answers: the run
// goes again, and its recheck waits at every receive, taking a recorded
// answer wherever it publishes the same masks for the same flow-sequence
// (session.run). The hub sees each publish once and the answers its polls
// gave are the ones applied, as if every receive had waited.
//
// The contract this rests on is one publisher per flow: nothing but this
// Chaser publishes into the keys its world polls. A stale entry another
// attempt at the same run left in the namespace is therefore never read
// before this world's own publish of that flow-sequence overwrites it — and
// since a poll only reads, two live attempts at one run cannot take each
// other's entries either: each overwrites with the bytes the other wrote.
type worldHub struct {
	c       *Chaser
	hub     tainthub.Hub
	starter tainthub.FlightStarter // hub, when it can start a flight
	// own is hub when it is the world's private in-process hub (no hub was
	// given).
	own *tainthub.Local

	// flights holds every message whose publish was attempted; unsettled are
	// those of them still in flight, in publish order.
	flights   map[flowSeq]*flight
	unsettled []*flight

	// early marks a first attempt over a hub that starts flights; applied
	// holds the flights its receives applied without waiting, and rechecked
	// is set by a drain that found one of them unconfirmed.
	early     bool
	applied   []*flight
	rechecked bool
	// answers are the flights of the first attempt a recheck goes again
	// for, by the message they carried.
	answers map[flowSeq]*flight

	// obsLocal counts the receives answered without the hub.
	obsLocal *obs.Counter
}

// newWorldHub returns the view through hub, or through a private in-process
// hub when hub is nil.
func newWorldHub(c *Chaser, hub tainthub.Hub, reg *obs.Registry) *worldHub {
	w := &worldHub{c: c, hub: hub, obsLocal: reg.Counter("core_hub_polls_local_total")}
	if hub == nil {
		w.own = tainthub.NewLocal()
		w.hub = w.own
	}
	w.starter, _ = w.hub.(tainthub.FlightStarter)
	return w
}

// maxKeptFlights bounds the flight table a reset view keeps: a Go map never
// shrinks.
const maxKeptFlights = 256

// reset empties the view of a drained world for the next world of its
// Chaser, which goes through hub: a view of the same base hub as the last
// world's (tainthub.Base; the next run's namespace of it), or nil for the
// private hub. A private hub the world published to is replaced by a new one;
// one it never called is kept as it is, empty.
func (w *worldHub) reset(hub tainthub.Hub) {
	if len(w.flights) > 0 && w.own != nil {
		w.own = tainthub.NewLocal()
		w.hub = w.own
	}
	starter := w.starter
	if hub != nil {
		w.hub = hub
		starter, _ = hub.(tainthub.FlightStarter)
	}
	flights := w.flights
	if len(flights) > maxKeptFlights {
		flights = nil
	}
	clear(flights)
	clear(w.unsettled)
	clear(w.applied)
	*w = worldHub{c: w.c, hub: w.hub, starter: starter, own: w.own, flights: flights,
		unsettled: w.unsettled[:0], applied: w.applied[:0], obsLocal: w.obsLocal}
}

// begin readies the view for its world: a run's first attempt when answers
// is nil — over a hub that starts flights, its receives do not wait — or the
// recheck of a first attempt whose drain found an unconfirmed receive, with
// that attempt's flights: every receive waits, and a flight that publishes
// what the first attempt published for its flow-sequence takes that answer.
func (w *worldHub) begin(answers map[flowSeq]*flight) {
	w.early = answers == nil && w.starter != nil
	w.answers = answers
}

// rechecking reports whether the view's world is a recheck, whose first
// attempt counted the run's injections.
func (w *worldHub) rechecking() bool { return w.answers != nil }

// takeAnswers returns the flights of a drained first attempt that must be
// rechecked, and nil when it need not: the view keeps none of them.
func (w *worldHub) takeAnswers() map[flowSeq]*flight {
	if !w.rechecked {
		return nil
	}
	answers := w.flights
	w.flights = nil
	return answers
}

// event emits one hub event about a message.
func (w *worldHub) event(typ string, rank int, msg flowSeq, masks []uint8) {
	if w.c.events != nil {
		w.c.events.Emit(typ, -1, rank, msg.seq, uint64(taintedCount(masks)), tainthub.FlowLabel(msg.key, msg.seq))
	}
}

// start hands the hub a tainted message — its publish, and the poll the
// receive hook will want answered — named by the send record.
func (w *worldHub) start(masks []uint8, send trace.SendRecord) {
	f := &flight{send: send, masks: masks}
	msg := f.msg()
	if w.flights == nil {
		w.flights = make(map[flowSeq]*flight)
	}
	w.flights[msg] = f
	w.event("hub_publish", send.Src, msg, masks)
	if a := w.answers[msg]; a != nil && bytes.Equal(a.masks, masks) {
		f.inflight = (*answered)(&a.res)
		w.unsettled = append(w.unsettled, f)
		return
	}
	publish, poll := w.c.hubReqID(), w.c.hubReqID()
	if w.starter != nil {
		f.inflight = w.starter.StartFlight(publish, poll, msg.key, msg.seq, masks)
		w.unsettled = append(w.unsettled, f)
		return
	}
	f.res = tainthub.SettleFlight(w.hub, publish, poll, msg.key, msg.seq, masks)
	w.published(f)
}

// settle records the publish side of the unsettled flights, in publish
// order, up to and including the given one (nil: all of them), collecting
// each answer that is not yet in.
func (w *worldHub) settle(through *flight) {
	for len(w.unsettled) > 0 {
		f := w.unsettled[0]
		w.unsettled = w.unsettled[1:]
		if f.inflight != nil {
			f.res, f.inflight = f.inflight.Collect(), nil
		}
		w.published(f)
		if f == through {
			return
		}
	}
}

// published records the publish side of a flight whose answer is in.
func (w *worldHub) published(f *flight) {
	if err := f.res.PublishErr; err != nil {
		// Hub unavailable: tracing degrades, execution continues. The
		// degradation is counted and retained for the HubFailRun policy.
		w.event("hub_publish_error", f.send.Src, f.msg(), nil)
		w.c.hubFailure("publish", err)
		return
	}
	w.c.collector.AddSend(f.send)
	w.c.countHub(1, 1, f.res.Found)
}

// drain settles the flights no receive collected — on an early world, every
// flight, once the hub's answers confirm what its receives applied — and
// counts the world's clean receives.
func (w *worldHub) drain() {
	if w.early {
		for _, f := range w.unsettled {
			f.res, f.inflight = f.inflight.Collect(), nil
		}
		for _, f := range w.applied {
			if !f.confirmed() {
				w.rechecked = true
				return
			}
		}
	}
	w.settle(nil)
	w.obsLocal.Add(w.c.pollsLocal)
}

// receive answers the receive hook: the hub's poll of the seq-th message of
// the flow, collected from its flight — on an early world, the masks its
// sender published, which the drain checks. A poll behind an acknowledged
// publish that found nothing is a cross-rank taint the hub dropped: it is
// reported through Chaser.taintLost.
func (w *worldHub) receive(k tainthub.Key, seq uint64) (masks []uint8, found bool, err error) {
	msg := flowSeq{key: k, seq: seq}
	f := w.flights[msg]
	if f == nil {
		w.c.pollsLocal++
		w.event("hub_poll_miss", k.Dst, msg, nil)
		return nil, false, nil
	}
	if w.early {
		w.applied = append(w.applied, f)
		w.event("hub_poll_hit", k.Dst, msg, f.masks)
		return f.masks, true, nil
	}
	if f.inflight != nil {
		w.settle(f)
	}
	if f.res.PublishErr != nil {
		// The hub may have applied the publish before it reported the error:
		// ask it.
		masks, found, err = w.hub.Poll(w.c.hubReqID(), k, seq)
		w.c.countHub(0, 1, found)
	} else {
		masks, found, err = f.res.Masks, f.res.Found, f.res.PollErr
		if err == nil && !found {
			w.c.taintLost(k, seq)
		}
	}
	typ := "hub_poll_miss"
	switch {
	case err != nil:
		typ = "hub_poll_error"
	case found:
		typ = "hub_poll_hit"
	}
	w.event(typ, k.Dst, msg, masks)
	return masks, found, err
}

func taintedCount(masks []uint8) int {
	n := 0
	for _, mk := range masks {
		if mk != 0 {
			n++
		}
	}
	return n
}

// state returns the machine's injection state, or nil if it has none.
func (c *Chaser) state(m *vm.Machine) *armState {
	// armed is fully populated before the world runs, and every hook runs on
	// the world's one goroutine.
	if m.Rank < len(c.armed) {
		if st := c.armed[m.Rank]; st != nil && st.m == m {
			return st
		}
	}
	return nil
}

func (c *Chaser) preSyscall(m *vm.Machine, sys isa.Sys) {
	if sys != isa.SysMPISend {
		return
	}
	st := c.state(m)
	if st == nil || !st.spec.Trace {
		return
	}
	buf := m.GPR(isa.R1)
	count := int64(m.GPR(isa.R2))
	dtype := isa.Datatype(m.GPR(isa.R3))
	dest := int(int64(m.GPR(isa.R4)))
	tag := int(int64(m.GPR(isa.R5)))
	n, ok := hookedMessageBytes(count, dtype)
	if !ok {
		return // the runtime will reject this send
	}
	seq := st.sendSeq.take(tainthub.Key{Src: m.Rank, Dst: dest, Tag: tag})

	if m.Shadow.TaintedBytes() == 0 || !m.Shadow.MemRangeTainted(buf, n) {
		// Not tainted: simply return without any hub traffic. The receiver's
		// poll finds the flow-sequence unrecorded and makes none either.
		return
	}
	masks := m.Shadow.MemRangeMasks(buf, n)
	c.view.start(masks, trace.SendRecord{
		Src: m.Rank, Dst: dest, Tag: tag, Seq: seq,
		Buf: buf, Len: int(n), TaintedBytes: taintedCount(masks),
		EIP: m.PC(), InstrNum: m.Instructions(),
	})
}

func (c *Chaser) postSyscall(m *vm.Machine, sys isa.Sys) {
	st := c.state(m)
	if st == nil || !st.spec.Trace {
		return
	}
	if sys == isa.SysMPISend {
		// A send that completed with tainted envelope metadata (count,
		// destination or tag computed from corrupted values) propagates the
		// fault's effect across ranks even when the payload is clean.
		sh := m.Shadow
		meta := sh.RegMask(tcg.GPR(isa.R2)) | sh.RegMask(tcg.GPR(isa.R4)) | sh.RegMask(tcg.GPR(isa.R5))
		if meta != 0 {
			c.collector.AddCrossRank(trace.CrossRankRecord{
				Src:  m.Rank,
				Dst:  int(int64(m.GPR(isa.R4))),
				Tag:  int(int64(m.GPR(isa.R5))),
				Meta: true,
				EIP:  m.PC(), InstrNum: m.Instructions(),
			})
		}
		return
	}
	if sys == isa.SysOutInt || sys == isa.SysOutFloat || sys == isa.SysOutBytes {
		c.outputTaint(m, sys)
		return
	}
	if sys != isa.SysMPIRecv {
		return
	}
	buf := m.GPR(isa.R1)
	count := int64(m.GPR(isa.R2))
	dtype := isa.Datatype(m.GPR(isa.R3))
	source := int(int64(m.GPR(isa.R4)))
	tag := int(int64(m.GPR(isa.R5)))
	if _, ok := hookedMessageBytes(count, dtype); !ok {
		return
	}
	key := tainthub.Key{Src: source, Dst: m.Rank, Tag: tag}
	seq := st.recvSeq.take(key)

	masks, found, err := c.view.receive(key, seq)
	if err != nil {
		c.hubFailure("poll", err)
		return
	}
	if !found {
		return // clean message
	}
	m.Shadow.SetMemRangeMasks(buf, masks)
	c.collector.AddCrossRank(trace.CrossRankRecord{
		Src: source, Dst: m.Rank, Tag: tag, Seq: seq, TaintedBytes: taintedCount(masks),
		EIP: m.PC(), InstrNum: m.Instructions(),
		Buf: buf, Len: len(masks),
	})
}

// outputTaint records tainted bytes flowing into the guest's output file —
// the sink nodes of the provenance graph, where a propagated fault becomes
// observable corruption. Called after the output syscall appended its bytes,
// so the file offset is the current length minus the written count.
func (c *Chaser) outputTaint(m *vm.Machine, sys isa.Sys) {
	if !m.Shadow.Live() {
		return
	}
	var masks []uint8
	var buf uint64
	n := 8
	switch sys {
	case isa.SysOutInt:
		regMask := m.Shadow.RegMask(tcg.GPR(isa.R1))
		if regMask == 0 {
			return
		}
		masks = make([]uint8, 8)
		for i := range masks {
			masks[i] = uint8(regMask >> (8 * i))
		}
	case isa.SysOutFloat:
		regMask := m.Shadow.RegMask(tcg.FPR(isa.F1))
		if regMask == 0 {
			return
		}
		masks = make([]uint8, 8)
		for i := range masks {
			masks[i] = uint8(regMask >> (8 * i))
		}
	case isa.SysOutBytes:
		addr := m.GPR(isa.R1)
		cnt := m.GPR(isa.R2)
		if cnt == 0 || cnt > maxHookedMessageBytes || !m.Shadow.MemRangeTainted(addr, cnt) {
			return
		}
		masks = m.Shadow.MemRangeMasks(addr, cnt)
		buf = addr
		n = int(cnt)
	}
	offset := m.OutputLen() - n
	if offset < 0 {
		// The append was rejected (output file at its cap); there is no file
		// range to attribute the taint to.
		return
	}
	rec := trace.OutputRecord{
		Rank: m.Rank, Offset: offset, Len: n, Buf: buf, Masks: masks,
		EIP: m.PC(), InstrNum: m.Instructions(),
	}
	c.collector.AddOutput(rec)
	c.events.Emit("output_tainted", -1, m.Rank, uint64(offset), uint64(rec.TaintedBytes()), "")
}
