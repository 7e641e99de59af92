package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"chaser/internal/isa"
	"chaser/internal/vm"
)

// env implements vm.MPIEnv for one rank. A call that has to wait for another
// rank returns vm.ErrWait with the rank's status set to what it waits for, the
// machine suspends, and when the rank next holds the baton the machine makes
// the same Call again, which goes on from its callState.
type env struct {
	w  *World
	rs *rankState
	callState
	// since is the time the call in progress first had to wait (telemetry
	// only).
	since time.Time
}

// callState is what the MPI call in progress has done so far, kept from one
// attempt to the next and zero between calls: step is how far a collective
// has got through its peers, acc a reduction's accumulator, gen the barrier
// generation the rank arrived in (step 1).
type callState struct {
	step int
	acc  []byte
	gen  int
}

var _ vm.MPIEnv = (*env)(nil)

// Call performs one MPI syscall for machine m, which holds the baton, or goes
// on with the one m was suspended in. If the call let a lower-numbered rank go
// on, m steps aside once the call is complete.
func (e *env) Call(m *vm.Machine, sys isa.Sys) error {
	err := e.dispatch(m, sys)
	if err == vm.ErrWait {
		return err
	}
	e.callState, e.since = callState{}, time.Time{}
	if err == nil && e.w.lowerRunnable(e.rs.id) {
		m.Yield()
	}
	return err
}

// wait suspends the call until something changes the rank's status back to
// runnable: st says what it waits for.
func (e *env) wait(st status) error {
	if e.w.obs != nil && e.since.IsZero() {
		e.since = time.Now()
	}
	e.rs.status = st
	return vm.ErrWait
}

// dispatch decodes one MPI syscall. Argument registers follow the guest ABI
// documented in package isa.
func (e *env) dispatch(m *vm.Machine, sys isa.Sys) error {
	switch sys {
	case isa.SysMPIRank:
		m.SetGPR(isa.R0, uint64(e.rs.id))
		return nil
	case isa.SysMPISize:
		m.SetGPR(isa.R0, uint64(e.w.size))
		return nil
	case isa.SysMPISend:
		return e.send(m,
			m.GPR(isa.R1), int64(m.GPR(isa.R2)), isa.Datatype(m.GPR(isa.R3)),
			int(int64(m.GPR(isa.R4))), int(int64(m.GPR(isa.R5))))
	case isa.SysMPIRecv:
		return e.recv(m,
			m.GPR(isa.R1), int64(m.GPR(isa.R2)), isa.Datatype(m.GPR(isa.R3)),
			int(int64(m.GPR(isa.R4))), int(int64(m.GPR(isa.R5))))
	case isa.SysMPIBarrier:
		return e.barrier()
	case isa.SysMPIBcast:
		return e.bcast(m,
			m.GPR(isa.R1), int64(m.GPR(isa.R2)), isa.Datatype(m.GPR(isa.R3)),
			int(int64(m.GPR(isa.R4))))
	case isa.SysMPIReduce:
		return e.reduce(m,
			m.GPR(isa.R1), m.GPR(isa.R2), int64(m.GPR(isa.R3)),
			isa.Datatype(m.GPR(isa.R4)), isa.ReduceOp(m.GPR(isa.R5)),
			int(int64(m.GPR(isa.R6))))
	case isa.SysMPIAllreduce:
		return e.allreduce(m,
			m.GPR(isa.R1), m.GPR(isa.R2), int64(m.GPR(isa.R3)),
			isa.Datatype(m.GPR(isa.R4)), isa.ReduceOp(m.GPR(isa.R5)))
	}
	return &vm.MPIRuntimeError{Op: sys.String(), Msg: "unknown MPI operation"}
}

// abortErr builds the MPI error reported by an operation interrupted by a
// world abort, carrying the root cause (peer failure or deadlock) so outcome
// classification can distinguish secondary aborts from local errors.
func (e *env) abortErr(op string) error {
	if t := e.rs.m.Aborted(); t != nil {
		// Adopt the abort's own termination: a peer failure stays an MPI
		// error carrying the root cause, a wall-clock kill stays a timeout.
		return &vm.AbortedError{Term: *t}
	}
	return &vm.MPIRuntimeError{Op: op, Msg: "aborted"}
}

// maxCount is the largest element count of one message the runtime accepts
// (4 Mi elements); a fault that pushes a count past it is an MPI error, not
// a multi-gigabyte copy.
const maxCount = 4 << 20

// validate checks the common (count, dtype, peer, tag) argument tuple; a
// fault that corrupted any of them is detected here, producing the paper's
// "MPI error detected" termination class.
func (e *env) validate(op string, count int64, dtype isa.Datatype, peer, tag int, internalTag bool) error {
	if count < 0 || count > maxCount {
		return &vm.MPIRuntimeError{Op: op, Msg: fmt.Sprintf("invalid count %d", count)}
	}
	if !dtype.Valid() {
		return &vm.MPIRuntimeError{Op: op, Msg: fmt.Sprintf("invalid datatype %d", int64(dtype))}
	}
	if peer < 0 || peer >= e.w.size {
		return &vm.MPIRuntimeError{Op: op, Msg: fmt.Sprintf("invalid rank %d (world size %d)", peer, e.w.size)}
	}
	if !internalTag && (tag < 0 || tag > MaxTag) {
		return &vm.MPIRuntimeError{Op: op, Msg: fmt.Sprintf("invalid tag %d", tag)}
	}
	return nil
}

func (e *env) send(m *vm.Machine, buf uint64, count int64, dtype isa.Datatype, dest, tag int) error {
	return e.sendTag(m, buf, count, dtype, dest, tag, false)
}

func (e *env) sendTag(m *vm.Machine, buf uint64, count int64, dtype isa.Datatype, dest, tag int, internal bool) error {
	if err := e.validate("MPI_Send", count, dtype, dest, tag, internal); err != nil {
		return err
	}
	if dest == e.rs.id {
		return &vm.MPIRuntimeError{Op: "MPI_Send", Msg: "send to self unsupported"}
	}
	n := uint64(count) * uint64(dtype.Size())
	data, err := m.Mem.ReadBytes(buf, n)
	if err != nil {
		return err // SegFault: the runtime touched a corrupted user buffer
	}
	msg := Message{Src: e.rs.id, Dst: dest, Tag: tag, Dtype: dtype, Count: count, Data: data}
	dst := &e.w.ranks[dest]
	// Eager-buffered delivery; only a full mailbox makes the sender wait.
	if !dst.mailbox.put(&msg) {
		if e.w.stopped {
			return e.abortErr("MPI_Send")
		}
		e.rs.waitDst = dest
		return e.wait(waitSend)
	}
	if !e.since.IsZero() {
		e.w.obs.sendWait.Observe(time.Since(e.since).Seconds())
		e.since = time.Time{}
	}
	if dst.status == waitRecv && dst.wantSrc == e.rs.id && dst.wantTag == tag {
		dst.status = runnable
	}
	e.w.obs.sent(len(data))
	return nil
}

// barrier waits until every rank of the world has arrived. The last arrival
// completes the generation and makes the others runnable; a rank the world's
// stopping made runnable instead finds its generation incomplete and fails
// the call.
func (e *env) barrier() error {
	w := e.w
	if e.step == 0 {
		if w.stopped {
			return e.abortErr("MPI_Barrier")
		}
		// The barrier is an inherent synchronization point, so timing it
		// live costs nothing measurable relative to the wait itself.
		if w.obs != nil {
			e.since = time.Now()
		}
		w.arrived++
		if w.arrived == w.size {
			w.arrived = 0
			w.barrierGen++
			for r := range w.ranks {
				if rs := &w.ranks[r]; rs.status == waitBarrier {
					rs.status = runnable
				}
			}
		} else {
			e.step, e.gen = 1, w.barrierGen
			return e.wait(waitBarrier)
		}
	} else if w.barrierGen == e.gen {
		return e.abortErr("MPI_Barrier")
	}
	if !e.since.IsZero() { // zero for a rank restored waiting
		w.obs.barrierWait.Observe(time.Since(e.since).Seconds())
	}
	return nil
}

func (e *env) recv(m *vm.Machine, buf uint64, count int64, dtype isa.Datatype, source, tag int) error {
	return e.recvTag(m, buf, count, dtype, source, tag, false)
}

func (e *env) recvTag(m *vm.Machine, buf uint64, count int64, dtype isa.Datatype, source, tag int, internal bool) error {
	if err := e.validate("MPI_Recv", count, dtype, source, tag, internal); err != nil {
		return err
	}
	msg, err := e.match(source, tag)
	if err != nil {
		return err
	}
	if msg.Count > count || msg.Dtype != dtype {
		return &vm.MPIRuntimeError{
			Op:  "MPI_Recv",
			Msg: fmt.Sprintf("message truncated: got %d×%s, want <= %d×%s", msg.Count, msg.Dtype, count, dtype),
		}
	}
	if err := m.Mem.WriteBytes(buf, msg.Data); err != nil {
		return err
	}
	return nil
}

// match returns the next message with the given source and tag, or waits for
// its delivery.
func (e *env) match(source, tag int) (Message, error) {
	for i, p := range e.rs.pending {
		if p.Src == source && p.Tag == tag {
			e.rs.pending = append(e.rs.pending[:i], e.rs.pending[i+1:]...)
			return e.matched(p), nil
		}
	}
	// Drain what has been delivered, setting aside what does not match.
	for msg, ok := e.take(); ok; msg, ok = e.take() {
		if msg.Src == source && msg.Tag == tag {
			return e.matched(msg), nil
		}
		e.rs.pending = append(e.rs.pending, msg)
	}
	if e.w.stopped {
		return Message{}, e.abortErr("MPI_Recv")
	}
	e.rs.wantSrc, e.rs.wantTag = source, tag
	return Message{}, e.wait(waitRecv)
}

// matched consumes msg for the call in progress.
func (e *env) matched(msg Message) Message {
	if !e.since.IsZero() {
		e.w.obs.recvWait.Observe(time.Since(e.since).Seconds())
		e.since = time.Time{}
	}
	return msg
}

// take removes the oldest message from the rank's own mailbox; taking one
// from a full mailbox makes the senders waiting for room in it runnable.
func (e *env) take() (Message, bool) {
	mb := &e.rs.mailbox
	full := mb.n == mailboxCap
	msg, ok := mb.take()
	if full {
		for r := range e.w.ranks {
			if rs := &e.w.ranks[r]; rs.status == waitSend && rs.waitDst == e.rs.id {
				rs.status = runnable
			}
		}
	}
	return msg, ok
}

func (e *env) bcast(m *vm.Machine, buf uint64, count int64, dtype isa.Datatype, root int) error {
	if err := e.validate("MPI_Bcast", count, dtype, root, 0, true); err != nil {
		return err
	}
	if e.rs.id == root {
		for ; e.step < e.w.size; e.step++ {
			if e.step == root {
				continue
			}
			if err := e.sendTag(m, buf, count, dtype, e.step, tagBcast, true); err != nil {
				return err
			}
		}
		return nil
	}
	return e.recvTag(m, buf, count, dtype, root, tagBcast, true)
}

func (e *env) reduce(m *vm.Machine, sendBuf, recvBuf uint64, count int64, dtype isa.Datatype, op isa.ReduceOp, root int) error {
	if err := e.validate("MPI_Reduce", count, dtype, root, 0, true); err != nil {
		return err
	}
	if !op.Valid() {
		return &vm.MPIRuntimeError{Op: "MPI_Reduce", Msg: fmt.Sprintf("invalid reduce op %d", int64(op))}
	}
	if dtype == isa.TypeByte {
		return &vm.MPIRuntimeError{Op: "MPI_Reduce", Msg: "byte reduction unsupported"}
	}
	if e.rs.id != root {
		return e.sendTag(m, sendBuf, count, dtype, root, tagReduce, true)
	}
	if err := e.accumulate(m, sendBuf, count, dtype); err != nil {
		return err
	}
	for ; e.step < e.w.size; e.step++ {
		if e.step == root {
			continue
		}
		if err := e.fold("MPI_Reduce", e.step, tagReduce, count, dtype, op); err != nil {
			return err
		}
	}
	return m.Mem.WriteBytes(recvBuf, e.acc)
}

// accumulate starts a reduction at its root: the accumulator is the root's
// own contribution.
func (e *env) accumulate(m *vm.Machine, sendBuf uint64, count int64, dtype isa.Datatype) error {
	if e.acc != nil {
		return nil // the call is going on after a wait
	}
	acc, err := m.Mem.ReadBytes(sendBuf, uint64(count)*uint64(dtype.Size()))
	e.acc = acc
	return err
}

// fold combines rank r's contribution into the accumulator, or waits for it.
func (e *env) fold(name string, r, tag int, count int64, dtype isa.Datatype, op isa.ReduceOp) error {
	msg, err := e.match(r, tag)
	if err != nil {
		return err
	}
	if msg.Count != count || msg.Dtype != dtype {
		return &vm.MPIRuntimeError{Op: name, Msg: "mismatched contribution"}
	}
	combine(e.acc, msg.Data, dtype, op)
	return nil
}

// allreduce reduces into rank 0 and rebroadcasts the result, so every rank
// receives the combined value.
func (e *env) allreduce(m *vm.Machine, sendBuf, recvBuf uint64, count int64, dtype isa.Datatype, op isa.ReduceOp) error {
	if err := e.validate("MPI_Allreduce", count, dtype, 0, 0, true); err != nil {
		return err
	}
	if !op.Valid() {
		return &vm.MPIRuntimeError{Op: "MPI_Allreduce", Msg: fmt.Sprintf("invalid reduce op %d", int64(op))}
	}
	if dtype == isa.TypeByte {
		return &vm.MPIRuntimeError{Op: "MPI_Allreduce", Msg: "byte reduction unsupported"}
	}
	size := e.w.size
	if e.rs.id != 0 {
		if e.step == 0 {
			if err := e.sendTag(m, sendBuf, count, dtype, 0, tagAllreduce, true); err != nil {
				return err
			}
			e.step = 1
		}
		return e.recvTag(m, recvBuf, count, dtype, 0, tagAllreduce, true)
	}
	// Rank 0 goes through 2(size-1) peers: the contributions of ranks
	// 1..size-1, then the result back to each.
	if err := e.accumulate(m, sendBuf, count, dtype); err != nil {
		return err
	}
	for ; e.step < size-1; e.step++ {
		if err := e.fold("MPI_Allreduce", e.step+1, tagAllreduce, count, dtype, op); err != nil {
			return err
		}
	}
	if e.step == size-1 {
		if err := m.Mem.WriteBytes(recvBuf, e.acc); err != nil {
			return err
		}
	}
	for ; e.step < 2*(size-1); e.step++ {
		if err := e.sendTag(m, recvBuf, count, dtype, e.step-size+2, tagAllreduce, true); err != nil {
			return err
		}
	}
	return nil
}

// combine folds contribution b into accumulator a element-wise.
func combine(a, b []byte, dtype isa.Datatype, op isa.ReduceOp) {
	for off := 0; off+8 <= len(a) && off+8 <= len(b); off += 8 {
		av := binary.LittleEndian.Uint64(a[off:])
		bv := binary.LittleEndian.Uint64(b[off:])
		var out uint64
		if dtype == isa.TypeFloat64 {
			af, bf := math.Float64frombits(av), math.Float64frombits(bv)
			var rf float64
			switch op {
			case isa.ReduceSum:
				rf = af + bf
			case isa.ReduceMax:
				rf = math.Max(af, bf)
			case isa.ReduceMin:
				rf = math.Min(af, bf)
			}
			out = math.Float64bits(rf)
		} else {
			ai, bi := int64(av), int64(bv)
			var ri int64
			switch op {
			case isa.ReduceSum:
				ri = ai + bi
			case isa.ReduceMax:
				ri = max(ai, bi)
			case isa.ReduceMin:
				ri = min(ai, bi)
			}
			out = uint64(ri)
		}
		binary.LittleEndian.PutUint64(a[off:], out)
	}
}
