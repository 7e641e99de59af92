package vm

import (
	"encoding/binary"
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
// request at the next translation-block boundary or blocking syscall. The
// first request is the one the machine keeps; Abort reports whether this was
// it.
func (m *Machine) Abort(t Termination) bool {
	return m.abort.p.CompareAndSwap(nil, &t)
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
	// execs counts complete executions of tb, on either loop, whose per-opcode
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
	m.stopped()
	return *m.term
}

// RunSlice executes until the machine terminates, and returns the termination,
// or until it steps aside for another rank of its world, and returns nil: its
// MPI environment suspended it inside a call (ErrWait) or asked it to stop
// after one (Yield). The next RunSlice goes on from there — a suspended call
// is issued again, without its pre-syscall hooks and without counting the
// instruction or the syscall a second time. A machine outside an MPI world
// never steps aside: its RunSlice is Run.
func (m *Machine) RunSlice() *Termination {
	m.yielded = false
	if sys := m.waitingIn; sys != 0 {
		m.waitingIn = 0
		m.finishSyscall(sys, m.waitPC)
	}
	for m.term == nil && m.waitingIn == 0 && !m.yielded {
		m.step(true)
	}
	if m.term != nil {
		m.flushObs()
	}
	m.stopped()
	return m.term
}

// Yield makes the RunSlice in progress return after the MPI call Yield is made
// from (a syscall ends its block) and that call's post-syscall hooks.
func (m *Machine) Yield() { m.yielded = true }

// stopped fires the Stopped hook.
func (m *Machine) stopped() {
	if m.Hooks.Stopped != nil {
		m.Hooks.Stopped()
	}
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
	m.stopped()
	return m.term
}

func (m *Machine) kill(sig Signal, msg string) {
	m.term = &Termination{Reason: ReasonSignal, Signal: sig, PC: m.pc, Msg: msg}
}

// execTB dispatches a block to one of two specialized interpreter loops:
// the taint-free fast loop when taint is disabled or the shadow is provably
// empty (the campaign golden run and the pre-injection prefix of every
// injected run), or the taint-aware loop otherwise. Both loops are
// observationally identical — terminations, counters, traces, and taint
// summaries match bitwise; the fast loop merely skips work that is provably a
// no-op.
func (m *Machine) execTB(node *chainNode, chain bool) *chainNode {
	if !m.noFastPath && (!m.TaintEnabled || !m.Shadow.Live()) {
		m.counters.FastPathTBs++
		return m.execTBFast(node, chain)
	}
	return m.execTBTaint(node, 0, chain)
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

// execTBTaint is the taint-aware interpreter loop. execTB selects it once any
// taint is live (every block after a fault) and for every block under
// NoFastPath; execTBFast hands it the rest of a block, from op index start,
// when a helper seeds taint mid-block.
//
// It is execTBFast's skeleton — instruction counter, sample boundary, exec
// trace and memory in locals, the TLB-hit path of the memory ops spelled out,
// per-opcode statistics credited per block, chained edges followed in place —
// plus the propagation arms. Every arm sits behind a test of the shadow masks
// it would read and write — for registers, op.Regs (the op's footprint)
// against the shadow's tainted-register bits; for memory, the tainted-byte
// count, then the mask itself. The rules map clean operands to a clean result,
// so when those masks are all zero the arm could only store zero over zero,
// and the op makes no Shadow call at all. Taint after a fault is sparse; most
// ops of a tainted run are clean.
//
// The instruction counter is written back before anything that reads
// m.counters: helpers, syscalls, the sampler and every tainted-access event
// (the propagation log records InstrNum). Per-opcode statistics are exact at
// helper, syscall and block boundaries, as on the fast loop.
//
// Chaining mirrors the fast loop's: cached edges are followed in place while
// the dispatch condition still selects this loop (taint live, or NoFastPath),
// with step()'s bookkeeping per transition, so TBsExecuted and ChainedTBs are
// those of the unchained engine; when taint has decayed the loop returns to
// step(), which resumes the fast loop.
//
//nolint:gocyclo // the micro-op interpreter is one hot switch by design.
func (m *Machine) execTBTaint(node *chainNode, start int, chain bool) *chainNode {
	regs := &m.regs
	mem := m.Mem
	sh := m.propagating()
	instrs := m.counters.Instructions
	maxInstr := m.maxInstr
	trace := m.execTrace
	nextSample := m.nextSample

nextBlock:
	tb := node.tb
	ops := tb.Ops
	// credited is the index after the last op whose First has been applied to
	// m.counters.PerOp; a mid-block entry starts past what the fast loop
	// credited before its helper.
	credited := start

	for i := start; i < len(ops); i++ {
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
			if sh.RegsTainted(op.Regs) {
				sh.SetRegMask(op.A0, 0)
			}
		case tcg.KMov:
			regs[op.A0] = regs[op.A1]
			if sh.RegsTainted(op.Regs) {
				sh.SetRegMask(op.A0, sh.RegMask(op.A1))
			}

		case tcg.KAdd:
			regs[op.A0] = regs[op.A1] + regs[op.A2]
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KSub:
			regs[op.A0] = regs[op.A1] - regs[op.A2]
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KMul:
			regs[op.A0] = regs[op.A1] * regs[op.A2]
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
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
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
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
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KAddI:
			regs[op.A0] = regs[op.A1] + uint64(op.Imm)
			if sh.RegsTainted(op.Regs) {
				sh.SetRegMask(op.A0, taint.ImmBinaryMask(tcg.KAddI, sh.RegMask(op.A1), op.Imm))
			}
		case tcg.KMulI:
			regs[op.A0] = regs[op.A1] * uint64(op.Imm)
			if sh.RegsTainted(op.Regs) {
				sh.SetRegMask(op.A0, taint.ImmBinaryMask(tcg.KMulI, sh.RegMask(op.A1), op.Imm))
			}
		case tcg.KAnd:
			regs[op.A0] = regs[op.A1] & regs[op.A2]
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KOr:
			regs[op.A0] = regs[op.A1] | regs[op.A2]
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KXor:
			regs[op.A0] = regs[op.A1] ^ regs[op.A2]
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KShl:
			sa := regs[op.A2]
			if sa >= 64 {
				regs[op.A0] = 0
			} else {
				regs[op.A0] = regs[op.A1] << sa
			}
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, sa)
			}
		case tcg.KShr:
			sa := regs[op.A2]
			if sa >= 64 {
				regs[op.A0] = 0
			} else {
				regs[op.A0] = regs[op.A1] >> sa
			}
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, sa)
			}
		case tcg.KNot:
			regs[op.A0] = ^regs[op.A1]
			if sh.RegsTainted(op.Regs) {
				unaryTaint(sh, op)
			}

		case tcg.KFAdd:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) + math.Float64frombits(regs[op.A2]))
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KFSub:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) - math.Float64frombits(regs[op.A2]))
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KFMul:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) * math.Float64frombits(regs[op.A2]))
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KFDiv:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) / math.Float64frombits(regs[op.A2]))
			if sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KFNeg:
			regs[op.A0] = math.Float64bits(-math.Float64frombits(regs[op.A1]))
			if sh.RegsTainted(op.Regs) {
				unaryTaint(sh, op)
			}
		case tcg.KCvtIF:
			regs[op.A0] = math.Float64bits(float64(int64(regs[op.A1])))
			if sh.RegsTainted(op.Regs) {
				unaryTaint(sh, op)
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
			if sh.RegsTainted(op.Regs) {
				unaryTaint(sh, op)
			}

		case tcg.KLd64, tcg.KLdD:
			// KLdD is the fused KAddI+KLd64: the address temporary (A2) is
			// still written — value and taint — so machine state matches the
			// unfused pair.
			addr := regs[op.A1]
			if op.Kind == tcg.KLdD {
				addr += uint64(op.Imm)
				if m1 := sh.RegMask(op.A1); m1|sh.RegMask(op.A2) != 0 {
					sh.SetRegMask(op.A2, taint.ImmBinaryMask(tcg.KLdD, m1, op.Imm))
				}
				regs[op.A2] = addr
			}
			var v uint64
			var p *memPage
			if base := addr &^ (PageSize - 1); addr-base <= PageSize-8 {
				if p = mem.lookup(base); p != nil {
					v = binary.LittleEndian.Uint64(p.data[addr-base : addr-base+8])
				}
			}
			if p == nil {
				var err error
				if v, err = mem.Read64(addr); err != nil {
					m.fault(tb, credited, i, instrs, SIGSEGV, err.Error())
					return node
				}
			}
			regs[op.A0] = v
			var mask uint64
			if sh.TaintedBytes() != 0 {
				mask = sh.MemMask64(addr)
			}
			if mask|sh.RegMask(op.A0) != 0 {
				sh.SetRegMask(op.A0, mask)
				if mask != 0 {
					m.memTaintEvent(op, instrs, addr, v, mask, 8, false, p)
				}
			}
		case tcg.KSt64, tcg.KStD:
			// KStD is the fused KAddI+KSt64. The temp (A0) must be written
			// before the source (A2) is read: for push they are both SP and
			// the unfused sequence stores the decremented value.
			addr := regs[op.A1]
			if op.Kind == tcg.KStD {
				addr += uint64(op.Imm)
				if m1 := sh.RegMask(op.A1); m1|sh.RegMask(op.A0) != 0 {
					sh.SetRegMask(op.A0, taint.ImmBinaryMask(tcg.KStD, m1, op.Imm))
				}
				regs[op.A0] = addr
			}
			v := regs[op.A2]
			var p *memPage
			if base := addr &^ (PageSize - 1); addr-base <= PageSize-8 {
				if p = mem.lookup(base); p != nil {
					binary.LittleEndian.PutUint64(p.data[addr-base:addr-base+8], v)
				}
			}
			if p == nil {
				if err := mem.Write64(addr, v); err != nil {
					m.fault(tb, credited, i, instrs, SIGSEGV, err.Error())
					return node
				}
			}
			if mask := sh.RegMask(op.A2); mask != 0 || sh.TaintedBytes() != 0 {
				sh.SetMemMask64(addr, mask)
				if mask != 0 {
					m.memTaintEvent(op, instrs, addr, v, mask, 8, true, p)
				}
			}
		case tcg.KLd8:
			addr := regs[op.A1]
			var v uint8
			p := mem.lookup(addr &^ (PageSize - 1))
			if p != nil {
				v = p.data[addr&(PageSize-1)]
			} else {
				var err error
				if v, err = mem.Read8(addr); err != nil {
					m.fault(tb, credited, i, instrs, SIGSEGV, err.Error())
					return node
				}
			}
			regs[op.A0] = uint64(v)
			var mask uint64
			if sh.TaintedBytes() != 0 {
				mask = uint64(sh.MemMask8(addr))
			}
			if mask|sh.RegMask(op.A0) != 0 {
				sh.SetRegMask(op.A0, mask)
				if mask != 0 {
					m.memTaintEvent(op, instrs, addr, uint64(v), mask, 1, false, p)
				}
			}
		case tcg.KSt8:
			addr := regs[op.A1]
			v := uint8(regs[op.A2])
			p := mem.lookup(addr &^ (PageSize - 1))
			if p != nil {
				p.data[addr&(PageSize-1)] = v
			} else if err := mem.Write8(addr, v); err != nil {
				m.fault(tb, credited, i, instrs, SIGSEGV, err.Error())
				return node
			}
			if mask := uint8(sh.RegMask(op.A2)); mask != 0 || sh.TaintedBytes() != 0 {
				sh.SetMemMask8(addr, mask)
				if mask != 0 {
					m.memTaintEvent(op, instrs, addr, uint64(v), uint64(mask), 1, true, p)
				}
			}

		case tcg.KSetc, tcg.KCmpBr:
			// KCmpBr is the fused KSetc+KBrCond across two guest
			// instructions: compare, retire the branch instruction, then
			// branch — the schedule the unfused pair executed.
			a, b := int64(regs[op.A1]), int64(regs[op.A2])
			switch {
			case a < b:
				m.flags = -1
			case a > b:
				m.flags = 1
			default:
				m.flags = 0
			}
			if sh.RegsTainted(op.Regs) {
				sh.SetRegMask(tcg.FlagsReg, taint.CompareMask(sh.RegMask(op.A1), sh.RegMask(op.A2)))
			}
			if op.Kind == tcg.KCmpBr {
				m.counters.Instructions = instrs
				m.creditBlock(node, credited, i)
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
			}
		case tcg.KSetcI, tcg.KCmpBrI:
			// KCmpBrI: Imm is the compare operand, Imm2 the taken target; the
			// fall-through is the instruction after the branch.
			a := int64(regs[op.A1])
			switch {
			case a < op.Imm:
				m.flags = -1
			case a > op.Imm:
				m.flags = 1
			default:
				m.flags = 0
			}
			if sh.RegsTainted(op.Regs) {
				sh.SetRegMask(tcg.FlagsReg, taint.CompareMask(sh.RegMask(op.A1), 0))
			}
			if op.Kind == tcg.KCmpBrI {
				m.counters.Instructions = instrs
				m.creditBlock(node, credited, i)
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
			if sh.RegsTainted(op.Regs) {
				sh.SetRegMask(tcg.FlagsReg, taint.CompareMask(sh.RegMask(op.A1), sh.RegMask(op.A2)))
			}

		case tcg.KBr:
			m.counters.Instructions = instrs
			m.creditBlock(node, credited, i)
			m.pc = uint64(op.Imm)
			goto chainTry
		case tcg.KBrCond:
			m.counters.Instructions = instrs
			m.creditBlock(node, credited, i)
			if condHolds(op.Cond, m.flags) {
				m.pc = uint64(op.Imm)
			} else {
				m.pc = uint64(op.Imm2)
			}
			goto chainTry
		case tcg.KCall:
			m.counters.Instructions = instrs
			m.creditBlock(node, credited, i)
			sp := regs[tcg.SPReg] - 8
			if err := mem.Write64(sp, uint64(op.Imm2)); err != nil {
				m.pc = op.GuestPC
				m.kill(SIGSEGV, err.Error())
				return node
			}
			regs[tcg.SPReg] = sp
			if sh.TaintedBytes() != 0 {
				sh.SetMemMask64(sp, 0)
			}
			m.pc = uint64(op.Imm)
			goto chainTry
		case tcg.KRet:
			m.counters.Instructions = instrs
			m.creditBlock(node, credited, i)
			sp := regs[tcg.SPReg]
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
			m.creditBlock(node, credited, i)
			m.pc = uint64(op.Imm2)
			m.doSyscall(isa.Sys(op.Imm), op.GuestPC)
			return node // KSyscall always ends the TB

		case tcg.KHlt:
			m.counters.Instructions = instrs
			m.creditBlock(node, credited, i)
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
				// The helper may have enabled tracking (the fast loop's
				// handoff re-reads it too).
				sh = m.propagating()
			}

		default:
			m.fault(tb, credited, i, instrs, SIGILL, "unimplemented micro-op "+op.Kind.String())
			return node
		}
	}
	m.counters.Instructions = instrs
	m.creditBlock(node, credited, len(ops)-1)
	m.pc = tb.NextPC

chainTry:
	// The guard order matches step(): pending aborts, then the overlay
	// generation, then the dispatch condition execTB would apply.
	if !chain || m.abort.p.Load() != nil || m.Trans.Gen() != m.chains.gen ||
		!(m.noFastPath || (m.TaintEnabled && m.Shadow.Live())) {
		return node
	}
	for k := range node.out {
		if e := node.out[k]; e.to != nil && e.pc == m.pc {
			node.lastHit = k
			node = e.to
			m.counters.ChainedTBs++
			m.counters.TBsExecuted++
			// Re-read what a fresh call would (retireFused may have passed a
			// sample boundary).
			sh = m.propagating()
			trace = m.execTrace
			nextSample = m.nextSample
			start = 0
			goto nextBlock
		}
	}
	return node
}

// noTaint is the shadow the taint-aware loop consults while tracking is off
// (NoFastPath without tracing): nothing in it is ever tainted, so no arm runs
// and nothing writes it.
var noTaint taint.Shadow

// propagating returns the shadow execTBTaint's arms test and update: the
// machine's own while taint tracking is enabled, noTaint otherwise.
func (m *Machine) propagating() *taint.Shadow {
	if m.TaintEnabled {
		return m.Shadow
	}
	return &noTaint
}

func binTaint(sh *taint.Shadow, op *tcg.Op, shift uint64) {
	sh.SetRegMask(op.A0, taint.BinaryMask(op.Kind, sh.RegMask(op.A1), sh.RegMask(op.A2), shift))
}

func unaryTaint(sh *taint.Shadow, op *tcg.Op) {
	sh.SetRegMask(op.A0, taint.UnaryMask(op.Kind, sh.RegMask(op.A1)))
}

// creditBlock credits per-opcode statistics for ops[from..last] of node's
// block at a block exit. A block executed from its top through its final op
// costs one increment on the node (flushPerOp applies the histogram
// execs-fold); anything else goes through creditPerOp.
func (m *Machine) creditBlock(node *chainNode, from, last int) {
	tb := node.tb
	if from == 0 && last == len(tb.Ops)-1 && tb.OpCounts != nil {
		if node.execs == 0 {
			m.dirtyPerOp = append(m.dirtyPerOp, node)
		}
		node.execs++
		return
	}
	m.creditPerOp(tb, from, last)
}

// fault ends a block at op i with a guest signal, after the write-back and
// the per-opcode credit every exit from either loop makes.
func (m *Machine) fault(tb *tcg.TB, credited, i int, instrs uint64, sig Signal, msg string) {
	m.counters.Instructions = instrs
	m.creditPerOp(tb, credited, i)
	m.pc = tb.Ops[i].GuestPC
	m.kill(sig, msg)
}

// memTaintEvent counts one tainted access the guest has just made at
// retired-instruction count instrs (written back here: hooks date the event
// by it) and, when a hook is installed, describes it in the machine's own
// record, field by field — physical address and region both read off the page
// the access touched: p, when the interpreter found it in the TLB, and
// otherwise the one Memory.locate finds.
func (m *Machine) memTaintEvent(op *tcg.Op, instrs, addr, value, mask uint64, size int, write bool, p *memPage) {
	m.counters.Instructions = instrs
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
	ev := &m.taintEv
	ev.Rank, ev.Write, ev.EIP, ev.VAddr = m.Rank, write, op.GuestPC, addr
	if p != nil && !p.mixed {
		ev.PAddr, ev.Region = p.frame*PageSize+addr&(PageSize-1), p.region
	} else {
		ev.PAddr, ev.Region = m.Mem.locate(addr)
	}
	ev.Value, ev.Mask, ev.InstrNum, ev.Size = value, mask, instrs, size
	cb(ev)
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
