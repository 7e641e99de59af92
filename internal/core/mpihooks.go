package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"chaser/internal/decaf"
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
// dest, tag); when the buffer is tainted, publish (ID, taint status) to the
// hub, where ID is (src, dest, tag) plus a per-flow sequence number.
//
// Receiver side (after MPI_Recv returns): extract (buf, count, datatype,
// source, tag), poll the hub; when a status exists, mark the received bytes
// tainted so propagation continues in this rank.
//
// Both sides of a world go through one worldHub, so only the receives of
// messages the world published cost a hub call: a clean message costs none on
// either side.

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

// worldHub is the view of the TaintHub one Chaser's hooks talk through. The
// Chaser supervises every rank of its world and mints every (flow, seq) it
// publishes, so it knows which polls can possibly hit: Publish records the
// flow-sequence before the hub sees it, and Poll answers "clean" itself, with
// no hub call, for any flow-sequence that was never recorded. The record is
// kept when the publish fails — the hub may have applied it before the error
// — so the set is a superset of what the hub can hold for this world, and the
// hub stays authoritative for every message in it.
//
// The contract this rests on is one publisher per flow: nothing but this
// Chaser publishes into the keys its world polls. A stale entry another
// attempt at the same run left in the namespace is therefore never read
// before this world's own publish of that flow-sequence overwrites it — and
// since a poll only reads, two live attempts at one run cannot take each
// other's entries either: each overwrites with the bytes the other wrote.
type worldHub struct {
	c   *Chaser
	hub tainthub.Hub

	mu sync.Mutex
	// published holds every flow-sequence whose Publish was attempted; the
	// value turns true once the hub acknowledged it.
	published map[flowSeq]bool

	// pollsLocal counts the receives answered without the hub, for
	// chaser_status; obsLocal is the same count on the run's registry.
	pollsLocal atomic.Uint64
	obsLocal   *obs.Counter
}

var _ tainthub.Hub = (*worldHub)(nil)

// Publish implements tainthub.Hub.
func (w *worldHub) Publish(id tainthub.ReqID, k tainthub.Key, seq uint64, masks []uint8) error {
	fs := flowSeq{key: k, seq: seq}
	w.mu.Lock()
	if w.published == nil {
		w.published = make(map[flowSeq]bool)
	}
	w.published[fs] = false
	w.mu.Unlock()
	err := w.hub.Publish(id, k, seq, masks)
	if err == nil {
		w.mu.Lock()
		w.published[fs] = true
		w.mu.Unlock()
	}
	return err
}

// Poll implements tainthub.Hub. A poll that reaches the hub for an
// acknowledged publish and finds nothing is a cross-rank taint the hub
// dropped: it is reported through Chaser.taintLost.
func (w *worldHub) Poll(id tainthub.ReqID, k tainthub.Key, seq uint64) ([]uint8, bool, error) {
	w.mu.Lock()
	acked, attempted := w.published[flowSeq{key: k, seq: seq}]
	w.mu.Unlock()
	if !attempted {
		w.pollsLocal.Add(1)
		w.obsLocal.Inc()
		return nil, false, nil
	}
	masks, found, err := w.hub.Poll(id, k, seq)
	if err == nil && !found && acked {
		w.c.taintLost(k, seq)
	}
	return masks, found, err
}

// Stats implements tainthub.Hub.
func (w *worldHub) Stats() tainthub.Stats { return w.hub.Stats() }

func (c *Chaser) state(m *vm.Machine) *armState {
	// armed is fully populated before guests start running; reads here are
	// concurrent but the map is no longer written.
	return c.armed[m]
}

func (c *Chaser) preSyscall(info decaf.ProcInfo, m *vm.Machine, sys isa.Sys) {
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
	key := tainthub.Key{Src: m.Rank, Dst: dest, Tag: tag}
	seq := st.sendSeq[key]
	st.sendSeq[key]++

	if m.Shadow.TaintedBytes() == 0 || !m.Shadow.MemRangeTainted(buf, n) {
		// Not tainted: simply return without any hub traffic. The receiver's
		// poll finds the flow-sequence unrecorded and makes none either.
		return
	}
	masks := m.Shadow.MemRangeMasks(buf, n)
	if err := c.hub.Publish(c.hubReqID(), key, seq, masks); err != nil {
		// Hub unavailable: tracing degrades, execution continues. The
		// degradation is counted and retained for the HubFailRun policy.
		c.hubFailure("publish", err)
		return
	}
	tainted := 0
	for _, mk := range masks {
		if mk != 0 {
			tainted++
		}
	}
	// The publish side of the provenance graph's cross-rank edge: the
	// matching Poll's CrossRankRecord shares (Src, Dst, Tag, Seq).
	c.collector.AddSend(trace.SendRecord{
		Src: m.Rank, Dst: dest, Tag: tag, Seq: seq,
		Buf: buf, Len: int(n), TaintedBytes: tainted,
		EIP: m.PC(), InstrNum: m.Instructions(),
	})
}

func (c *Chaser) postSyscall(info decaf.ProcInfo, m *vm.Machine, sys isa.Sys) {
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
	seq := st.recvSeq[key]
	st.recvSeq[key]++

	masks, found, err := c.hub.Poll(c.hubReqID(), key, seq)
	if err != nil {
		c.hubFailure("poll", err)
		return
	}
	if !found {
		return // clean message
	}
	m.Shadow.SetMemRangeMasks(buf, masks)
	tainted := 0
	for _, mk := range masks {
		if mk != 0 {
			tainted++
		}
	}
	c.collector.AddCrossRank(trace.CrossRankRecord{
		Src: source, Dst: m.Rank, Tag: tag, Seq: seq, TaintedBytes: tainted,
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
