package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"chaser/internal/isa"
	"chaser/internal/vm"
)

// env implements vm.MPIEnv for one rank.
type env struct {
	w  *World
	rs *rankState
	// progress counts externally visible effects of the current Call — a
	// message delivered to a peer's mailbox or a match consumed from the
	// local queues. A fork-point pause that interrupts a call with
	// progress > 0 cannot rewind it (re-execution would replay the effects),
	// so abortErr marks the world's pause dirty. Draining the mailbox into
	// pending is NOT progress: pending is part of the snapshot and the
	// re-executed receive rescans it.
	progress int
}

var _ vm.MPIEnv = (*env)(nil)

// Call dispatches one MPI syscall for machine m. Argument registers follow
// the guest ABI documented in package isa.
func (e *env) Call(m *vm.Machine, sys isa.Sys) error {
	e.progress = 0
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
		// The barrier is an inherent synchronization point, so timing it live
		// costs nothing measurable relative to the wait itself.
		var t0 time.Time
		if e.w.obs != nil {
			t0 = time.Now()
		}
		ok := e.w.barrier.wait(e.w.abortCh)
		if e.w.obs != nil {
			e.w.obs.barrierWait.Observe(time.Since(t0).Seconds())
		}
		if !ok {
			return e.abortErr("MPI_Barrier")
		}
		return nil
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
	if e.w.pausing.Load() && e.progress > 0 {
		e.w.pauseDirty.Store(true)
	}
	if t := e.rs.m.Aborted(); t != nil {
		// Adopt the abort's own termination: a peer failure stays an MPI
		// error carrying the root cause, a watchdog kill stays a timeout.
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
	dst := &e.w.ranks[dest].mailbox
	// Fast path: eager-buffered delivery without entering the blocked state
	// (keeps the deadlock watchdog free of false positives).
	if !dst.tryPut(&msg) {
		e.block()
		defer e.rs.blocked.Store(false)
		var t0 time.Time
		if e.w.obs != nil {
			t0 = time.Now()
		}
		if !dst.put(&msg) {
			return e.abortErr("MPI_Send")
		}
		if e.w.obs != nil {
			e.w.obs.sendWait.Observe(time.Since(t0).Seconds())
		}
	}
	e.w.delivered.Add(1)
	e.progress++
	e.w.obs.sent(len(data))
	return nil
}

// block marks the rank blocked in an MPI wait, the state the deadlock
// watchdog looks for, and makes sure the watchdog runs.
func (e *env) block() {
	e.rs.blocked.Store(true)
	e.w.startWatchdog()
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

// match blocks until a message with the given source and tag is available.
func (e *env) match(source, tag int) (Message, error) {
	for i, p := range e.rs.pending {
		if p.Src == source && p.Tag == tag {
			e.rs.pending = append(e.rs.pending[:i], e.rs.pending[i+1:]...)
			e.progress++
			return p, nil
		}
	}
	// Fast path: drain already-delivered messages without entering the
	// blocked state.
	for {
		msg, ok := e.rs.mailbox.tryTake()
		if !ok {
			break
		}
		if msg.Src == source && msg.Tag == tag {
			e.progress++
			return msg, nil
		}
		e.rs.pending = append(e.rs.pending, msg)
	}
	e.block()
	defer e.rs.blocked.Store(false)
	var t0 time.Time
	if e.w.obs != nil {
		t0 = time.Now()
	}
	for {
		msg, ok := e.rs.mailbox.take()
		if !ok {
			return Message{}, e.abortErr("MPI_Recv")
		}
		if msg.Src == source && msg.Tag == tag {
			e.progress++
			if e.w.obs != nil {
				e.w.obs.recvWait.Observe(time.Since(t0).Seconds())
			}
			return msg, nil
		}
		e.rs.pending = append(e.rs.pending, msg)
	}
}

func (e *env) bcast(m *vm.Machine, buf uint64, count int64, dtype isa.Datatype, root int) error {
	if err := e.validate("MPI_Bcast", count, dtype, root, 0, true); err != nil {
		return err
	}
	if e.rs.id == root {
		for r := 0; r < e.w.size; r++ {
			if r == root {
				continue
			}
			if err := e.sendTag(m, buf, count, dtype, r, tagBcast, true); err != nil {
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
	n := uint64(count) * uint64(dtype.Size())
	acc, err := m.Mem.ReadBytes(sendBuf, n)
	if err != nil {
		return err
	}
	for r := 0; r < e.w.size; r++ {
		if r == root {
			continue
		}
		msg, err := e.match(r, tagReduce)
		if err != nil {
			return err
		}
		if msg.Count != count || msg.Dtype != dtype {
			return &vm.MPIRuntimeError{Op: "MPI_Reduce", Msg: "mismatched contribution"}
		}
		combine(acc, msg.Data, dtype, op)
	}
	return m.Mem.WriteBytes(recvBuf, acc)
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
	n := uint64(count) * uint64(dtype.Size())
	if e.rs.id != 0 {
		if err := e.sendTag(m, sendBuf, count, dtype, 0, tagAllreduce, true); err != nil {
			return err
		}
		return e.recvTag(m, recvBuf, count, dtype, 0, tagAllreduce, true)
	}
	acc, err := m.Mem.ReadBytes(sendBuf, n)
	if err != nil {
		return err
	}
	for r := 1; r < e.w.size; r++ {
		msg, err := e.match(r, tagAllreduce)
		if err != nil {
			return err
		}
		if msg.Count != count || msg.Dtype != dtype {
			return &vm.MPIRuntimeError{Op: "MPI_Allreduce", Msg: "mismatched contribution"}
		}
		combine(acc, msg.Data, dtype, op)
	}
	if err := m.Mem.WriteBytes(recvBuf, acc); err != nil {
		return err
	}
	for r := 1; r < e.w.size; r++ {
		if err := e.sendTag(m, recvBuf, count, dtype, r, tagAllreduce, true); err != nil {
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
