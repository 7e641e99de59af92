package vm

import (
	"errors"
	"math"
	"sync/atomic"

	"chaser/internal/isa"
	"chaser/internal/taint"
	"chaser/internal/tcg"
)

// abortBox is the cross-goroutine kill switch used by the MPI world
// supervisor.
type abortBox struct {
	p atomic.Pointer[Termination]
}

// Abort requests asynchronous termination of the machine (e.g. mpirun
// killing the remaining ranks after a peer crash). The machine observes the
// request at the next translation-block boundary or blocking syscall.
func (m *Machine) Abort(t Termination) {
	m.abort.p.CompareAndSwap(nil, &t)
}

// Aborted returns the pending asynchronous termination, if any.
func (m *Machine) Aborted() *Termination { return m.abort.p.Load() }

// chainNode wraps a translation block with this machine's chaining state.
// TBs may be shared read-only between machines (the campaign base cache), so
// QEMU-style block chaining — a mutation — lives here, never on the TB.
type chainNode struct {
	tb  *tcg.TB
	out [2]chainEdge // up to two cached successor edges, engine-managed
	// lastHit is the slot most recently looked up or written; eviction takes
	// the other slot (pseudo-LRU), so an alternating pattern over three
	// successors keeps the recurring edge cached instead of cycling it out.
	lastHit int
	// execs counts complete fast-loop executions of tb whose per-opcode
	// statistics have not yet been folded into Counters.PerOp; flushPerOp
	// applies tb's histogram execs-fold and zeroes it.
	execs uint64
}

// chainEdge is one cached control-flow edge: continuation pc -> successor.
type chainEdge struct {
	pc uint64
	to *chainNode
}

// chainTable is the per-machine chain state: one node per executed TB,
// valid for a single translation-overlay generation.
type chainTable struct {
	gen   uint64
	nodes map[*tcg.TB]*chainNode
}

// Run executes the guest until it terminates and returns its final status.
// Hot control-flow edges are block-chained: once a successor block is
// resolved it is cached on the predecessor's chain node and followed
// directly, subject to a generation check so overlay flushes invalidate
// every chain.
func (m *Machine) Run() Termination {
	for m.term == nil {
		m.step(true)
	}
	m.flushObs()
	return *m.term
}

// step performs one engine iteration: observe pending asynchronous aborts,
// resolve the next block through the chain table (or the translator on a
// chain miss), execute it, and cache the taken edge. chain permits the fast
// loop to follow chained edges without unwinding (Run); Step passes false to
// keep its one-block-per-call contract.
func (m *Machine) step(chain bool) {
	if t := m.abort.p.Load(); t != nil {
		m.term = t
		return
	}
	// The generation must be re-read every iteration: helpers can flush
	// the translation overlay mid-run (Chaser arms hooks that way), which
	// must sever every chained edge immediately.
	gen := m.Trans.Gen()
	if m.chains.nodes == nil || m.chains.gen != gen {
		// The outgoing table's nodes carry unflushed per-opcode credit;
		// fold it in before they become unreachable.
		m.flushPerOp()
		m.chains = chainTable{gen: gen, nodes: make(map[*tcg.TB]*chainNode)}
		m.prevTB = nil
	}
	var node *chainNode
	if prev := m.prevTB; prev != nil {
		for i := range prev.out {
			if e := prev.out[i]; e.to != nil && e.pc == m.pc {
				node = e.to
				prev.lastHit = i
				m.counters.ChainedTBs++
				break
			}
		}
	}
	if node == nil {
		tb, err := m.Trans.Block(m.pc)
		if err != nil {
			// Instruction-fetch fault: wild jump outside the code
			// segment (SIGSEGV) or into an undecodable word (SIGILL).
			sig := SIGSEGV
			var bad *isa.BadOpcodeError
			if errors.As(err, &bad) && bad.Opcode != 0 {
				sig = SIGILL
			}
			m.kill(sig, err.Error())
			return
		}
		node = m.chains.nodes[tb]
		if node == nil {
			node = &chainNode{tb: tb}
			m.chains.nodes[tb] = node
		}
		if prev := m.prevTB; prev != nil {
			// Reuse a free slot or one already holding this pc — inserting
			// into the other slot would duplicate the edge and evict a live
			// distinct successor. Only when both slots hold live distinct
			// edges does one get evicted, and then the least-recently-used
			// one, not round-robin.
			slot := -1
			for i := range prev.out {
				if prev.out[i].to == nil || prev.out[i].pc == m.pc {
					slot = i
					break
				}
			}
			if slot < 0 {
				slot = 1 - prev.lastHit
			}
			prev.out[slot] = chainEdge{pc: m.pc, to: node}
			prev.lastHit = slot
		}
	}
	m.counters.TBsExecuted++
	m.prevTB = m.execTB(node, chain)
}

// Step executes exactly one translation block (for tests and debuggers). It
// has the semantics of a single Run iteration: pending aborts are honored,
// fetch faults are classified (SIGSEGV vs SIGILL), and the budget and
// chaining bookkeeping are identical — interleaving Step and Run is safe.
func (m *Machine) Step() *Termination {
	if m.term == nil {
		m.step(false)
	}
	return m.term
}

func (m *Machine) kill(sig Signal, msg string) {
	m.term = &Termination{Reason: ReasonSignal, Signal: sig, PC: m.pc, Msg: msg}
}

// execTB dispatches a block to one of two specialized interpreter loops:
// the taint-free fast loop when taint is disabled or the shadow is provably
// empty (the campaign golden run and the pre-injection prefix of every
// injected run), or the full loop otherwise. Both loops are observationally
// identical — terminations, counters, traces, and taint summaries match
// bitwise; the fast loop merely skips work that is provably a no-op.
func (m *Machine) execTB(node *chainNode, chain bool) *chainNode {
	if !m.noFastPath && (!m.TaintEnabled || !m.Shadow.Live()) {
		m.counters.FastPathTBs++
		return m.execTBFast(node, chain)
	}
	m.execTBFull(node.tb, 0)
	return node
}

// retireFused performs the First-boundary bookkeeping for the second guest
// instruction covered by a cross-instruction fused op (KCmpBr), replicating
// exactly what the unfused schedule did between the pair. It returns false
// when the instruction budget terminates the run.
func (m *Machine) retireFused(op *tcg.Op) bool {
	m.counters.Instructions++
	m.counters.PerOp[op.GuestOp2]++
	if m.execTrace != nil {
		m.execTrace.record(op.GuestPC2, op.GuestOp2, m.counters.Instructions)
	}
	if m.counters.Instructions > m.maxInstr {
		m.pc = op.GuestPC2
		m.term = &Termination{Reason: ReasonBudget, PC: m.pc}
		return false
	}
	if m.counters.Instructions == m.nextSample {
		m.sampleBoundary()
	}
	return true
}

// sampleBoundary runs when the retired-instruction count reaches nextSample:
// it moves the boundary one interval on and, while taint tracking is enabled
// and a sampler installed, reports the tainted-byte count.
func (m *Machine) sampleBoundary() {
	m.nextSample += m.sampleIv
	if m.TaintEnabled && m.Hooks.Sample != nil {
		m.Hooks.Sample(m.counters.Instructions, m.Shadow.TaintedBytes())
	}
}

//nolint:gocyclo // the micro-op interpreter is one hot switch by design.
func (m *Machine) execTBFull(tb *tcg.TB, start int) {
	taintOn := m.TaintEnabled
	sh := m.Shadow
	regs := &m.regs

	for i := start; i < len(tb.Ops); i++ {
		op := &tb.Ops[i]
		if op.First {
			m.counters.Instructions++
			m.counters.PerOp[op.GuestOp]++
			if m.execTrace != nil {
				m.execTrace.record(op.GuestPC, op.GuestOp, m.counters.Instructions)
			}
			if m.counters.Instructions > m.maxInstr {
				m.pc = op.GuestPC
				m.term = &Termination{Reason: ReasonBudget, PC: m.pc}
				return
			}
			if m.counters.Instructions == m.nextSample {
				m.sampleBoundary()
			}
		}

		switch op.Kind {
		case tcg.KNop:
			// nothing

		case tcg.KMovI:
			regs[op.A0] = uint64(op.Imm)
			if taintOn {
				sh.SetRegMask(op.A0, 0)
			}

		case tcg.KMov:
			regs[op.A0] = regs[op.A1]
			if taintOn {
				sh.SetRegMask(op.A0, sh.RegMask(op.A1))
			}

		case tcg.KAdd:
			regs[op.A0] = regs[op.A1] + regs[op.A2]
			if taintOn {
				m.binTaint(op)
			}
		case tcg.KSub:
			regs[op.A0] = regs[op.A1] - regs[op.A2]
			if taintOn {
				m.binTaint(op)
			}
		case tcg.KMul:
			regs[op.A0] = regs[op.A1] * regs[op.A2]
			if taintOn {
				m.binTaint(op)
			}
		case tcg.KDiv:
			a, b := int64(regs[op.A1]), int64(regs[op.A2])
			if b == 0 {
				m.pc = op.GuestPC
				m.kill(SIGFPE, "integer divide by zero")
				return
			}
			if a == math.MinInt64 && b == -1 {
				regs[op.A0] = uint64(a) // wrap like two's-complement hardware
			} else {
				regs[op.A0] = uint64(a / b)
			}
			if taintOn {
				m.binTaint(op)
			}
		case tcg.KMod:
			a, b := int64(regs[op.A1]), int64(regs[op.A2])
			if b == 0 {
				m.pc = op.GuestPC
				m.kill(SIGFPE, "integer modulo by zero")
				return
			}
			if a == math.MinInt64 && b == -1 {
				regs[op.A0] = 0
			} else {
				regs[op.A0] = uint64(a % b)
			}
			if taintOn {
				m.binTaint(op)
			}
		case tcg.KAddI:
			regs[op.A0] = regs[op.A1] + uint64(op.Imm)
			if taintOn {
				sh.SetRegMask(op.A0, taint.ImmBinaryMask(tcg.KAddI, sh.RegMask(op.A1), op.Imm))
			}
		case tcg.KMulI:
			regs[op.A0] = regs[op.A1] * uint64(op.Imm)
			if taintOn {
				sh.SetRegMask(op.A0, taint.ImmBinaryMask(tcg.KMulI, sh.RegMask(op.A1), op.Imm))
			}
		case tcg.KAnd:
			regs[op.A0] = regs[op.A1] & regs[op.A2]
			if taintOn {
				m.binTaint(op)
			}
		case tcg.KOr:
			regs[op.A0] = regs[op.A1] | regs[op.A2]
			if taintOn {
				m.binTaint(op)
			}
		case tcg.KXor:
			regs[op.A0] = regs[op.A1] ^ regs[op.A2]
			if taintOn {
				m.binTaint(op)
			}
		case tcg.KShl:
			sa := regs[op.A2]
			if sa >= 64 {
				regs[op.A0] = 0
			} else {
				regs[op.A0] = regs[op.A1] << sa
			}
			if taintOn {
				sh.SetRegMask(op.A0, taint.BinaryMask(tcg.KShl, sh.RegMask(op.A1), sh.RegMask(op.A2), sa))
			}
		case tcg.KShr:
			sa := regs[op.A2]
			if sa >= 64 {
				regs[op.A0] = 0
			} else {
				regs[op.A0] = regs[op.A1] >> sa
			}
			if taintOn {
				sh.SetRegMask(op.A0, taint.BinaryMask(tcg.KShr, sh.RegMask(op.A1), sh.RegMask(op.A2), sa))
			}
		case tcg.KNot:
			regs[op.A0] = ^regs[op.A1]
			if taintOn {
				sh.SetRegMask(op.A0, taint.UnaryMask(tcg.KNot, sh.RegMask(op.A1)))
			}

		case tcg.KFAdd:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) + math.Float64frombits(regs[op.A2]))
			if taintOn {
				m.binTaint(op)
			}
		case tcg.KFSub:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) - math.Float64frombits(regs[op.A2]))
			if taintOn {
				m.binTaint(op)
			}
		case tcg.KFMul:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) * math.Float64frombits(regs[op.A2]))
			if taintOn {
				m.binTaint(op)
			}
		case tcg.KFDiv:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) / math.Float64frombits(regs[op.A2]))
			if taintOn {
				m.binTaint(op)
			}
		case tcg.KFNeg:
			regs[op.A0] = math.Float64bits(-math.Float64frombits(regs[op.A1]))
			if taintOn {
				sh.SetRegMask(op.A0, taint.UnaryMask(tcg.KFNeg, sh.RegMask(op.A1)))
			}
		case tcg.KCvtIF:
			regs[op.A0] = math.Float64bits(float64(int64(regs[op.A1])))
			if taintOn {
				sh.SetRegMask(op.A0, taint.UnaryMask(tcg.KCvtIF, sh.RegMask(op.A1)))
			}
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
			if taintOn {
				sh.SetRegMask(op.A0, taint.UnaryMask(tcg.KCvtFI, sh.RegMask(op.A1)))
			}

		case tcg.KLd64:
			addr := regs[op.A1]
			v, err := m.Mem.Read64(addr)
			if err != nil {
				m.pc = op.GuestPC
				m.kill(SIGSEGV, err.Error())
				return
			}
			regs[op.A0] = v
			if taintOn {
				mask := sh.MemMask64(addr)
				sh.SetRegMask(op.A0, mask)
				if mask != 0 {
					m.memTaintEvent(op, addr, v, mask, 8, false)
				}
			}
		case tcg.KSt64:
			addr := regs[op.A1]
			v := regs[op.A2]
			if err := m.Mem.Write64(addr, v); err != nil {
				m.pc = op.GuestPC
				m.kill(SIGSEGV, err.Error())
				return
			}
			if taintOn {
				mask := sh.RegMask(op.A2)
				sh.SetMemMask64(addr, mask)
				if mask != 0 {
					m.memTaintEvent(op, addr, v, mask, 8, true)
				}
			}
		case tcg.KLd8:
			addr := regs[op.A1]
			v, err := m.Mem.Read8(addr)
			if err != nil {
				m.pc = op.GuestPC
				m.kill(SIGSEGV, err.Error())
				return
			}
			regs[op.A0] = uint64(v)
			if taintOn {
				mask := uint64(sh.MemMask8(addr))
				sh.SetRegMask(op.A0, mask)
				if mask != 0 {
					m.memTaintEvent(op, addr, uint64(v), mask, 1, false)
				}
			}
		case tcg.KSt8:
			addr := regs[op.A1]
			v := uint8(regs[op.A2])
			if err := m.Mem.Write8(addr, v); err != nil {
				m.pc = op.GuestPC
				m.kill(SIGSEGV, err.Error())
				return
			}
			if taintOn {
				mask := uint8(sh.RegMask(op.A2))
				sh.SetMemMask8(addr, mask)
				if mask != 0 {
					m.memTaintEvent(op, addr, uint64(v), uint64(mask), 1, true)
				}
			}

		case tcg.KLdD:
			// Fused KAddI+KLd64: the address temporary (A2) is still written
			// — value and taint — so machine state matches the unfused pair.
			addr := regs[op.A1] + uint64(op.Imm)
			if taintOn {
				sh.SetRegMask(op.A2, taint.ImmBinaryMask(tcg.KLdD, sh.RegMask(op.A1), op.Imm))
			}
			regs[op.A2] = addr
			v, err := m.Mem.Read64(addr)
			if err != nil {
				m.pc = op.GuestPC
				m.kill(SIGSEGV, err.Error())
				return
			}
			regs[op.A0] = v
			if taintOn {
				mask := sh.MemMask64(addr)
				sh.SetRegMask(op.A0, mask)
				if mask != 0 {
					m.memTaintEvent(op, addr, v, mask, 8, false)
				}
			}
		case tcg.KStD:
			// Fused KAddI+KSt64. The temp (A0) must be written before the
			// source (A2) is read: for push they are both SP and the unfused
			// sequence stores the decremented value.
			addr := regs[op.A1] + uint64(op.Imm)
			if taintOn {
				sh.SetRegMask(op.A0, taint.ImmBinaryMask(tcg.KStD, sh.RegMask(op.A1), op.Imm))
			}
			regs[op.A0] = addr
			v := regs[op.A2]
			if err := m.Mem.Write64(addr, v); err != nil {
				m.pc = op.GuestPC
				m.kill(SIGSEGV, err.Error())
				return
			}
			if taintOn {
				mask := sh.RegMask(op.A2)
				sh.SetMemMask64(addr, mask)
				if mask != 0 {
					m.memTaintEvent(op, addr, v, mask, 8, true)
				}
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
			if taintOn {
				sh.SetRegMask(tcg.FlagsReg, taint.CompareMask(sh.RegMask(op.A1), sh.RegMask(op.A2)))
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
			if taintOn {
				sh.SetRegMask(tcg.FlagsReg, taint.CompareMask(sh.RegMask(op.A1), 0))
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
			if taintOn {
				sh.SetRegMask(tcg.FlagsReg, taint.CompareMask(sh.RegMask(op.A1), sh.RegMask(op.A2)))
			}

		case tcg.KBr:
			m.pc = uint64(op.Imm)
			return
		case tcg.KBrCond:
			if condHolds(op.Cond, m.flags) {
				m.pc = uint64(op.Imm)
			} else {
				m.pc = uint64(op.Imm2)
			}
			return
		case tcg.KCmpBr:
			// Fused KSetc+KBrCond across two guest instructions: compare,
			// retire the branch instruction, then branch — the same schedule
			// the unfused pair executed.
			a, b := int64(regs[op.A1]), int64(regs[op.A2])
			switch {
			case a < b:
				m.flags = -1
			case a > b:
				m.flags = 1
			default:
				m.flags = 0
			}
			if taintOn {
				sh.SetRegMask(tcg.FlagsReg, taint.CompareMask(sh.RegMask(op.A1), sh.RegMask(op.A2)))
			}
			if !m.retireFused(op) {
				return
			}
			if condHolds(op.Cond, m.flags) {
				m.pc = uint64(op.Imm)
			} else {
				m.pc = uint64(op.Imm2)
			}
			return
		case tcg.KCmpBrI:
			// Immediate form: Imm is the compare operand, Imm2 the taken
			// target; the fall-through is the instruction after the branch.
			a := int64(regs[op.A1])
			switch {
			case a < op.Imm:
				m.flags = -1
			case a > op.Imm:
				m.flags = 1
			default:
				m.flags = 0
			}
			if taintOn {
				sh.SetRegMask(tcg.FlagsReg, taint.CompareMask(sh.RegMask(op.A1), 0))
			}
			if !m.retireFused(op) {
				return
			}
			if condHolds(op.Cond, m.flags) {
				m.pc = uint64(op.Imm2)
			} else {
				m.pc = op.GuestPC2 + isa.InstrSize
			}
			return
		case tcg.KCall:
			sp := regs[tcg.SPReg] - 8
			if err := m.Mem.Write64(sp, uint64(op.Imm2)); err != nil {
				m.pc = op.GuestPC
				m.kill(SIGSEGV, err.Error())
				return
			}
			regs[tcg.SPReg] = sp
			if taintOn {
				sh.SetMemMask64(sp, 0)
			}
			m.pc = uint64(op.Imm)
			return
		case tcg.KRet:
			sp := regs[tcg.SPReg]
			ret, err := m.Mem.Read64(sp)
			if err != nil {
				m.pc = op.GuestPC
				m.kill(SIGSEGV, err.Error())
				return
			}
			regs[tcg.SPReg] = sp + 8
			m.pc = ret
			return

		case tcg.KSyscall:
			m.pc = uint64(op.Imm2)
			m.doSyscall(isa.Sys(op.Imm), op.GuestPC)
			if m.term != nil {
				return
			}
			return // KSyscall always ends the TB

		case tcg.KHlt:
			m.pc = op.GuestPC
			m.term = &Termination{Reason: ReasonExited, Code: int64(regs[tcg.GPR0]), PC: m.pc}
			return

		case tcg.KHelper:
			if op.Helper >= 0 && op.Helper < len(m.helpers) {
				m.helpers[op.Helper](m, op)
				if m.term != nil {
					return
				}
			}

		default:
			m.pc = op.GuestPC
			m.kill(SIGILL, "unimplemented micro-op "+op.Kind.String())
			return
		}
	}
	m.pc = tb.NextPC
}

func (m *Machine) binTaint(op *tcg.Op) {
	sh := m.Shadow
	sh.SetRegMask(op.A0, taint.BinaryMask(op.Kind, sh.RegMask(op.A1), sh.RegMask(op.A2), m.regs[op.A2]))
}

// memTaintEvent counts one tainted access the guest has just made and, when
// a hook is installed, describes it in the machine's own record — physical
// address and region both read off the page the access touched.
func (m *Machine) memTaintEvent(op *tcg.Op, addr, value, mask uint64, size int, write bool) {
	cb := m.Hooks.TaintedMemRead
	if write {
		m.counters.TaintedMemWrites++
		cb = m.Hooks.TaintedMemWrite
	} else {
		m.counters.TaintedMemReads++
	}
	if cb == nil {
		return
	}
	paddr, region := m.Mem.locate(addr)
	m.taintEv = MemTaintEvent{
		Rank: m.Rank, Write: write, EIP: op.GuestPC, VAddr: addr, PAddr: paddr,
		Value: value, Mask: mask, InstrNum: m.counters.Instructions, Size: size, Region: region,
	}
	cb(&m.taintEv)
}

func condHolds(cond isa.Op, flags int64) bool {
	switch cond {
	case isa.OpJe:
		return flags == 0
	case isa.OpJne:
		return flags != 0
	case isa.OpJl:
		return flags < 0
	case isa.OpJle:
		return flags <= 0
	case isa.OpJg:
		return flags > 0
	case isa.OpJge:
		return flags >= 0
	}
	return false
}
