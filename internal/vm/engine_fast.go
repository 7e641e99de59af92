package vm

import (
	"encoding/binary"
	"math"

	"chaser/internal/isa"
	"chaser/internal/tcg"
)

// execTBFast is the taint-free specialization of the interpreter loop,
// selected by execTB when taint is disabled or the shadow is provably empty.
// It is execTBTaint with every propagation arm deleted: on an empty shadow
// those arms only ever write zeros over zeros, so skipping them cannot be
// observed — except by the clock. The one taint-aware piece that remains is
// the sampler, which must keep firing (with zero tainted bytes) during the
// pre-injection prefix of a tracing run so sample timelines stay identical.
//
// A KHelper may seed taint mid-block (Chaser's fault_injector corrupting a
// register); the loop re-checks Shadow.Live after every helper and hands the
// rest of the block to the taint-aware loop, so the first tainted micro-op
// already propagates.
//
// When chain is true (Run, never Step), the loop follows cached chain edges
// itself — QEMU's goto_tb: a resolved successor block continues executing
// without unwinding to step(), skipping a function call, the dispatcher, and
// the local-state reload per block. Every transition performs exactly the
// bookkeeping step() would (abort poll, generation check, edge scan and LRU
// update, counters), so the executed-block and chained-edge counts are
// bitwise those of the unchained engine; an edge miss returns to step() to
// translate and link, after which the loop picks the edge up again. The
// final node is returned so step() can keep its predecessor bookkeeping.
//
//nolint:gocyclo // the micro-op interpreter is one hot switch by design.
func (m *Machine) execTBFast(node *chainNode, chain bool) *chainNode {
	// Hot state lives in locals: stores through regs alias m for all the
	// compiler knows, so field accesses inside the loop would otherwise
	// reload from memory on every micro-op. The instruction counter is
	// written back at every point control can leave the loop or reach code
	// that reads m.counters (helpers, hooks, syscalls, retireFused).
	regs := &m.regs
	mem := m.Mem
	instrs := m.counters.Instructions
	maxInstr := m.maxInstr
	trace := m.execTrace
	nextSample := m.nextSample

nextBlock:
	tb := node.tb
	ops := tb.Ops
	// Per-opcode statistics are credited at block boundaries, not per
	// instruction: credited marks the index after the last op whose First
	// has been applied to m.counters.PerOp.
	credited := 0

	for i := 0; i < len(ops); i++ {
		op := &ops[i]
		if op.First {
			instrs++
			if trace != nil {
				trace.record(op.GuestPC, op.GuestOp, instrs)
			}
			if instrs > maxInstr {
				m.counters.Instructions = instrs
				m.creditPerOp(tb, credited, i)
				m.pc = op.GuestPC
				m.term = &Termination{Reason: ReasonBudget, PC: m.pc}
				return node
			}
			if instrs == nextSample {
				m.counters.Instructions = instrs
				m.sampleBoundary()
				nextSample = m.nextSample
			}
		}

		switch op.Kind {
		case tcg.KNop:
			// nothing

		case tcg.KMovI:
			regs[op.A0] = uint64(op.Imm)
		case tcg.KMov:
			regs[op.A0] = regs[op.A1]

		case tcg.KAdd:
			regs[op.A0] = regs[op.A1] + regs[op.A2]
		case tcg.KSub:
			regs[op.A0] = regs[op.A1] - regs[op.A2]
		case tcg.KMul:
			regs[op.A0] = regs[op.A1] * regs[op.A2]
		case tcg.KDiv:
			a, b := int64(regs[op.A1]), int64(regs[op.A2])
			if b == 0 {
				m.fault(tb, credited, i, instrs, SIGFPE, "integer divide by zero")
				return node
			}
			if a == math.MinInt64 && b == -1 {
				regs[op.A0] = uint64(a) // wrap like two's-complement hardware
			} else {
				regs[op.A0] = uint64(a / b)
			}
		case tcg.KMod:
			a, b := int64(regs[op.A1]), int64(regs[op.A2])
			if b == 0 {
				m.fault(tb, credited, i, instrs, SIGFPE, "integer modulo by zero")
				return node
			}
			if a == math.MinInt64 && b == -1 {
				regs[op.A0] = 0
			} else {
				regs[op.A0] = uint64(a % b)
			}
		case tcg.KAddI:
			regs[op.A0] = regs[op.A1] + uint64(op.Imm)
		case tcg.KMulI:
			regs[op.A0] = regs[op.A1] * uint64(op.Imm)
		case tcg.KAnd:
			regs[op.A0] = regs[op.A1] & regs[op.A2]
		case tcg.KOr:
			regs[op.A0] = regs[op.A1] | regs[op.A2]
		case tcg.KXor:
			regs[op.A0] = regs[op.A1] ^ regs[op.A2]
		case tcg.KShl:
			if sa := regs[op.A2]; sa >= 64 {
				regs[op.A0] = 0
			} else {
				regs[op.A0] = regs[op.A1] << sa
			}
		case tcg.KShr:
			if sa := regs[op.A2]; sa >= 64 {
				regs[op.A0] = 0
			} else {
				regs[op.A0] = regs[op.A1] >> sa
			}
		case tcg.KNot:
			regs[op.A0] = ^regs[op.A1]

		case tcg.KFAdd:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) + math.Float64frombits(regs[op.A2]))
		case tcg.KFSub:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) - math.Float64frombits(regs[op.A2]))
		case tcg.KFMul:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) * math.Float64frombits(regs[op.A2]))
		case tcg.KFDiv:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) / math.Float64frombits(regs[op.A2]))
		case tcg.KFNeg:
			regs[op.A0] = math.Float64bits(-math.Float64frombits(regs[op.A1]))
		case tcg.KCvtIF:
			regs[op.A0] = math.Float64bits(float64(int64(regs[op.A1])))
		case tcg.KCvtFI:
			f := math.Float64frombits(regs[op.A1])
			switch {
			case math.IsNaN(f):
				regs[op.A0] = 0
			case f >= math.MaxInt64:
				regs[op.A0] = uint64(math.MaxInt64)
			case f <= math.MinInt64:
				regs[op.A0] = 1 << 63 // bit pattern of MinInt64
			default:
				regs[op.A0] = uint64(int64(f))
			}

		case tcg.KLd64:
			// The TLB hit path is spelled out here (and in the other memory
			// cases) to keep the hot loop free of function calls; misses and
			// page-straddling accesses fall back to the accessor.
			addr := regs[op.A1]
			if base := addr &^ (PageSize - 1); addr-base <= PageSize-8 {
				if p := mem.lookup(base); p != nil {
					regs[op.A0] = binary.LittleEndian.Uint64(p.data[addr-base : addr-base+8])
					break
				}
			}
			v, err := mem.Read64(addr)
			if err != nil {
				m.fault(tb, credited, i, instrs, SIGSEGV, err.Error())
				return node
			}
			regs[op.A0] = v
		case tcg.KSt64:
			addr := regs[op.A1]
			if base := addr &^ (PageSize - 1); addr-base <= PageSize-8 {
				if p := mem.lookup(base); p != nil {
					binary.LittleEndian.PutUint64(p.data[addr-base:addr-base+8], regs[op.A2])
					break
				}
			}
			if err := mem.Write64(addr, regs[op.A2]); err != nil {
				m.fault(tb, credited, i, instrs, SIGSEGV, err.Error())
				return node
			}
		case tcg.KLd8:
			addr := regs[op.A1]
			if p := mem.lookup(addr &^ (PageSize - 1)); p != nil {
				regs[op.A0] = uint64(p.data[addr&(PageSize-1)])
				break
			}
			v, err := mem.Read8(addr)
			if err != nil {
				m.fault(tb, credited, i, instrs, SIGSEGV, err.Error())
				return node
			}
			regs[op.A0] = uint64(v)
		case tcg.KSt8:
			addr := regs[op.A1]
			if p := mem.lookup(addr &^ (PageSize - 1)); p != nil {
				p.data[addr&(PageSize-1)] = uint8(regs[op.A2])
				break
			}
			if err := mem.Write8(addr, uint8(regs[op.A2])); err != nil {
				m.fault(tb, credited, i, instrs, SIGSEGV, err.Error())
				return node
			}

		case tcg.KLdD:
			addr := regs[op.A1] + uint64(op.Imm)
			regs[op.A2] = addr
			if base := addr &^ (PageSize - 1); addr-base <= PageSize-8 {
				if p := mem.lookup(base); p != nil {
					regs[op.A0] = binary.LittleEndian.Uint64(p.data[addr-base : addr-base+8])
					break
				}
			}
			v, err := mem.Read64(addr)
			if err != nil {
				m.fault(tb, credited, i, instrs, SIGSEGV, err.Error())
				return node
			}
			regs[op.A0] = v
		case tcg.KStD:
			addr := regs[op.A1] + uint64(op.Imm)
			regs[op.A0] = addr
			if base := addr &^ (PageSize - 1); addr-base <= PageSize-8 {
				if p := mem.lookup(base); p != nil {
					binary.LittleEndian.PutUint64(p.data[addr-base:addr-base+8], regs[op.A2])
					break
				}
			}
			if err := mem.Write64(addr, regs[op.A2]); err != nil {
				m.fault(tb, credited, i, instrs, SIGSEGV, err.Error())
				return node
			}

		case tcg.KSetc:
			a, b := int64(regs[op.A1]), int64(regs[op.A2])
			switch {
			case a < b:
				m.flags = -1
			case a > b:
				m.flags = 1
			default:
				m.flags = 0
			}
		case tcg.KSetcI:
			a := int64(regs[op.A1])
			switch {
			case a < op.Imm:
				m.flags = -1
			case a > op.Imm:
				m.flags = 1
			default:
				m.flags = 0
			}
		case tcg.KFSetc:
			a := math.Float64frombits(regs[op.A1])
			b := math.Float64frombits(regs[op.A2])
			switch {
			case math.IsNaN(a) || math.IsNaN(b):
				m.flags = 1
			case a < b:
				m.flags = -1
			case a > b:
				m.flags = 1
			default:
				m.flags = 0
			}

		case tcg.KBr:
			m.counters.Instructions = instrs
			if credited == 0 && i == len(ops)-1 && tb.OpCounts != nil {
				if node.execs == 0 {
					m.dirtyPerOp = append(m.dirtyPerOp, node)
				}
				node.execs++
			} else {
				m.creditPerOp(tb, credited, i)
			}
			m.pc = uint64(op.Imm)
			goto chainTry
		case tcg.KBrCond:
			m.counters.Instructions = instrs
			if credited == 0 && i == len(ops)-1 && tb.OpCounts != nil {
				if node.execs == 0 {
					m.dirtyPerOp = append(m.dirtyPerOp, node)
				}
				node.execs++
			} else {
				m.creditPerOp(tb, credited, i)
			}
			if condHolds(op.Cond, m.flags) {
				m.pc = uint64(op.Imm)
			} else {
				m.pc = uint64(op.Imm2)
			}
			goto chainTry
		case tcg.KCmpBr:
			a, b := int64(regs[op.A1]), int64(regs[op.A2])
			switch {
			case a < b:
				m.flags = -1
			case a > b:
				m.flags = 1
			default:
				m.flags = 0
			}
			m.counters.Instructions = instrs
			if credited == 0 && i == len(ops)-1 && tb.OpCounts != nil {
				if node.execs == 0 {
					m.dirtyPerOp = append(m.dirtyPerOp, node)
				}
				node.execs++
			} else {
				m.creditPerOp(tb, credited, i)
			}
			if !m.retireFused(op) {
				return node
			}
			instrs = m.counters.Instructions
			if condHolds(op.Cond, m.flags) {
				m.pc = uint64(op.Imm)
			} else {
				m.pc = uint64(op.Imm2)
			}
			goto chainTry
		case tcg.KCmpBrI:
			a := int64(regs[op.A1])
			switch {
			case a < op.Imm:
				m.flags = -1
			case a > op.Imm:
				m.flags = 1
			default:
				m.flags = 0
			}
			m.counters.Instructions = instrs
			if credited == 0 && i == len(ops)-1 && tb.OpCounts != nil {
				if node.execs == 0 {
					m.dirtyPerOp = append(m.dirtyPerOp, node)
				}
				node.execs++
			} else {
				m.creditPerOp(tb, credited, i)
			}
			if !m.retireFused(op) {
				return node
			}
			instrs = m.counters.Instructions
			if condHolds(op.Cond, m.flags) {
				m.pc = uint64(op.Imm2)
			} else {
				m.pc = op.GuestPC2 + isa.InstrSize
			}
			goto chainTry
		case tcg.KCall:
			m.counters.Instructions = instrs
			if credited == 0 && i == len(ops)-1 && tb.OpCounts != nil {
				if node.execs == 0 {
					m.dirtyPerOp = append(m.dirtyPerOp, node)
				}
				node.execs++
			} else {
				m.creditPerOp(tb, credited, i)
			}
			sp := regs[tcg.SPReg] - 8
			if base := sp &^ (PageSize - 1); sp-base <= PageSize-8 {
				if p := mem.lookup(base); p != nil {
					binary.LittleEndian.PutUint64(p.data[sp-base:sp-base+8], uint64(op.Imm2))
					regs[tcg.SPReg] = sp
					m.pc = uint64(op.Imm)
					goto chainTry
				}
			}
			if err := mem.Write64(sp, uint64(op.Imm2)); err != nil {
				m.pc = op.GuestPC
				m.kill(SIGSEGV, err.Error())
				return node
			}
			regs[tcg.SPReg] = sp
			m.pc = uint64(op.Imm)
			goto chainTry
		case tcg.KRet:
			m.counters.Instructions = instrs
			if credited == 0 && i == len(ops)-1 && tb.OpCounts != nil {
				if node.execs == 0 {
					m.dirtyPerOp = append(m.dirtyPerOp, node)
				}
				node.execs++
			} else {
				m.creditPerOp(tb, credited, i)
			}
			sp := regs[tcg.SPReg]
			if base := sp &^ (PageSize - 1); sp-base <= PageSize-8 {
				if p := mem.lookup(base); p != nil {
					regs[tcg.SPReg] = sp + 8
					m.pc = binary.LittleEndian.Uint64(p.data[sp-base : sp-base+8])
					goto chainTry
				}
			}
			ret, err := mem.Read64(sp)
			if err != nil {
				m.pc = op.GuestPC
				m.kill(SIGSEGV, err.Error())
				return node
			}
			regs[tcg.SPReg] = sp + 8
			m.pc = ret
			goto chainTry

		case tcg.KSyscall:
			m.counters.Instructions = instrs
			if credited == 0 && i == len(ops)-1 && tb.OpCounts != nil {
				if node.execs == 0 {
					m.dirtyPerOp = append(m.dirtyPerOp, node)
				}
				node.execs++
			} else {
				m.creditPerOp(tb, credited, i)
			}
			m.pc = uint64(op.Imm2)
			m.doSyscall(isa.Sys(op.Imm), op.GuestPC)
			return node // KSyscall always ends the TB

		case tcg.KHlt:
			m.counters.Instructions = instrs
			if credited == 0 && i == len(ops)-1 && tb.OpCounts != nil {
				if node.execs == 0 {
					m.dirtyPerOp = append(m.dirtyPerOp, node)
				}
				node.execs++
			} else {
				m.creditPerOp(tb, credited, i)
			}
			m.pc = op.GuestPC
			m.term = &Termination{Reason: ReasonExited, Code: int64(regs[tcg.GPR0]), PC: m.pc}
			return node

		case tcg.KHelper:
			if op.Helper >= 0 && op.Helper < len(m.helpers) {
				m.counters.Instructions = instrs
				m.creditPerOp(tb, credited, i)
				credited = i + 1
				m.helpers[op.Helper](m, op)
				instrs = m.counters.Instructions
				if m.term != nil {
					return node
				}
				// The helper may have seeded taint (fault injection) or
				// enabled tracking; the rest of the block must propagate it.
				if m.TaintEnabled && m.Shadow.Live() {
					return m.execTBTaint(node, i+1, chain)
				}
			}

		default:
			m.fault(tb, credited, i, instrs, SIGILL, "unimplemented micro-op "+op.Kind.String())
			return node
		}
	}
	m.counters.Instructions = instrs
	if credited == 0 && tb.OpCounts != nil {
		if node.execs == 0 {
			m.dirtyPerOp = append(m.dirtyPerOp, node)
		}
		node.execs++
	} else {
		m.creditPerOp(tb, credited, len(ops)-1)
	}
	m.pc = tb.NextPC

chainTry:
	// Follow the taken edge in place when permitted — the goto_tb analogue.
	// The guard order matches step(): pending aborts first, then the overlay
	// generation (a helper may have flushed translations mid-block, severing
	// every chain), then the dispatch condition execTB would apply.
	if !chain || m.abort.p.Load() != nil || m.Trans.Gen() != m.chains.gen ||
		(m.TaintEnabled && m.Shadow.Live()) {
		return node
	}
	for k := range node.out {
		if e := node.out[k]; e.to != nil && e.pc == m.pc {
			node.lastHit = k
			node = e.to
			m.counters.ChainedTBs++
			m.counters.TBsExecuted++
			m.counters.FastPathTBs++
			// Re-read the per-block cached state exactly where a fresh
			// execTBFast call would (retireFused may have passed a sample
			// boundary).
			trace = m.execTrace
			nextSample = m.nextSample
			goto nextBlock
		}
	}
	return node
}

// creditPerOp applies a loop's deferred per-opcode counts for ops[from..last]
// of tb. The common case — a block executed from its top through its final
// op — takes the precomputed histogram; partial executions (kills, budget
// stops, helper sites) walk the retired prefix, which attributes exactly what
// counting at every instruction would.
func (m *Machine) creditPerOp(tb *tcg.TB, from, last int) {
	if from == 0 && last == len(tb.Ops)-1 && tb.OpCounts != nil {
		for _, oc := range tb.OpCounts {
			m.counters.PerOp[oc.Op] += oc.N
		}
		return
	}
	for i := from; i <= last; i++ {
		if tb.Ops[i].First {
			m.counters.PerOp[tb.Ops[i].GuestOp]++
		}
	}
}

// flushPerOp folds every dirty chain node's batched block credit into PerOp:
// each complete execution of a block, on either loop, costs one counter
// increment on its node, and the histogram is applied execs-fold here. Partial credits
// increment PerOp directly and so commute with the batch; only a read needs
// the flush (Counters() is the sole read path, so observed values are exact).
func (m *Machine) flushPerOp() {
	if len(m.dirtyPerOp) == 0 {
		return
	}
	for _, n := range m.dirtyPerOp {
		for _, oc := range n.tb.OpCounts {
			m.counters.PerOp[oc.Op] += oc.N * n.execs
		}
		n.execs = 0
	}
	m.dirtyPerOp = m.dirtyPerOp[:0]
}
