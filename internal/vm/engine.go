package vm

import (
	"encoding/binary"
	"errors"
	"math"
	"sync/atomic"
	"unsafe"

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
	// execs counts complete executions of tb whose per-opcode statistics have
	// not yet been folded into Counters.PerOp; flushPerOp applies tb's
	// histogram execs-fold and zeroes it. A node with execs != 0 is on the
	// machine's dirtyPerOp list, linked through nextDirty.
	execs     uint64
	nextDirty *chainNode
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
	// wear decides whether Arena.Release clears nodes or makes it anew.
	wear taint.MapWear
	// slab is where new nodes are carved from, in order. A table's nodes
	// live as long as its machine's run, so a recycled machine's table
	// carves its next run's nodes from the slab its last run filled.
	slab []chainNode
}

// Slabs of chain nodes start at firstSlab nodes and double, up to
// maxRecycledBlocks, which bounds the slab a recycled machine keeps.
const firstSlab = 32

// node returns a new node for tb, carved from the slab.
func (c *chainTable) node(tb *tcg.TB) *chainNode {
	if len(c.slab) == cap(c.slab) {
		c.slab = make([]chainNode, 0, min(max(2*cap(c.slab), firstSlab), maxRecycledBlocks))
	}
	c.slab = c.slab[:len(c.slab)+1]
	n := &c.slab[len(c.slab)-1]
	n.tb = tb
	return n
}

// reuse returns the slab emptied for the table's next run, which must be the
// only one to reach its nodes: the machine's last run is over.
func (c *chainTable) reuse() []chainNode {
	clear(c.slab)
	return c.slab[:0]
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
		if m.chains.nodes == nil {
			m.chains.nodes = make(map[*tcg.TB]*chainNode)
		} else {
			m.chains.wear.Saw(len(m.chains.nodes))
			clear(m.chains.nodes)
		}
		m.chains.gen = gen
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
			node = m.chains.node(tb)
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
	m.end(Termination{Reason: ReasonSignal, Signal: sig, PC: m.pc, Msg: msg})
}

// killSegv kills the machine with the SIGSEGV of an access to unmapped addr,
// its text left for Termination.Message to format.
func (m *Machine) killSegv(addr uint64, write bool) {
	m.end(Termination{Reason: ReasonSignal, Signal: SIGSEGV, PC: m.pc, segv: true, segvWrite: write, segvAddr: addr})
}

// execTB runs a block on one of execLoop's two copies: the taint-free one
// while taint tracking is off or the block can touch no taint (golden runs,
// every injected run's pre-fault prefix, and after the fault every block
// whose registers are clean while memory is), the taint copy otherwise and
// under NoFastPath. The copies are observationally identical; the taint-free
// one merely skips work that is provably a no-op.
func (m *Machine) execTB(node *chainNode, chain bool) *chainNode {
	if !m.tainting(node.tb) {
		m.counters.FastPathTBs++
		return execLoop[fastLoop](m, node, 0, chain)
	}
	return execLoop[taintLoop](m, node, 0, chain)
}

// tainting reports whether tb runs on the taint copy of the loop: under
// NoFastPath, and while tracking is on, when a memory byte or a register of
// tb's footprint (tcg.TB.Regs) is tainted. Otherwise no op of tb can create
// or move taint: every register it reads or writes as data is clean, so are
// the bytes it loads, stores and pushes, and an address's taint reaches
// nothing. Syscall hooks run on both copies, and a helper that seeds taint
// hands the rest of the block over.
func (m *Machine) tainting(tb *tcg.TB) bool {
	return m.noFastPath || (m.TaintEnabled && (m.Shadow.TaintedBytes() > 0 || m.Shadow.RegsTainted(tb.Regs)))
}

// loopMode selects a copy of execLoop. Go compiles one body per GC shape and
// the modes differ in size, so each copy is its own machine code in which
// unsafe.Sizeof(mode) is a constant: the taint-free copy has no propagation
// code at all. (A method on the mode would cost a dictionary call per op.)
type loopMode interface{ fastLoop | taintLoop }

// fastLoop instantiates the taint-free copy: zero size, no propagation.
type fastLoop struct{}

// taintLoop instantiates the taint copy.
type taintLoop struct{ _ byte }

// execLoop is the micro-op interpreter. It runs node's block from op index
// start and, when chain is true (Run, never Step), follows cached chain edges
// itself — QEMU's goto_tb — with exactly the bookkeeping step() would do per
// transition (abort poll, generation check, edge scan and LRU update,
// counters), so block counts are those of the unchained engine. An edge miss,
// or a block the other copy must run, returns the last node to step().
//
// Each op is one case, and its propagation arm sits behind tainting, a
// constant in each copy. Every arm also tests the shadow masks it would read
// and write — for registers, op.Regs (the op's footprint) against the
// shadow's tainted-register bits; for memory, on a TLB hit, the shadow page
// the entry holds (Memory.shadowPage: nil when no byte of the page is
// tainted), then the mask itself. The rules map clean operands to a clean
// result, so when those masks are all zero the op makes no Shadow call at
// all: taint after a fault is sparse. A tainted store hands the shadow the
// page it read the old mask from; misses take the shadow's own accessors.
// The taint-free copy keeps the sampler, which fires with zero tainted bytes
// before the fault so sample timelines stay identical, and hands the rest of
// a block to the taint copy when a helper seeds taint the block can touch
// (Chaser's fault_injector), so the first tainted micro-op already
// propagates.
//
// Hot state lives in locals (stores through regs alias m for all the compiler
// knows). The instruction counter is written back before anything that reads
// m.counters: helpers, syscalls, the sampler, retireFused and every
// tainted-access event (the propagation log records InstrNum).
//
//nolint:gocyclo // the micro-op interpreter is one hot switch by design.
func execLoop[M loopMode](m *Machine, node *chainNode, start int, chain bool) *chainNode {
	var mode M
	tainting := unsafe.Sizeof(mode) != 0
	var sh *taint.Shadow
	if tainting {
		sh = m.propagating()
	}
	regs := &m.regs
	mem := m.Mem
	instrs := m.counters.Instructions
	stop := m.stopAt()

nextBlock:
	tb := node.tb
	ops := tb.Ops
	// credited is the index after the last op whose First has been applied to
	// m.counters.PerOp; a mid-block entry starts past what the taint-free copy
	// credited before its helper.
	credited := start
	_ = ops[start:] // 0 <= start: ops[i] below needs no bounds check

	for i := start; i < len(ops); i++ {
		op := &ops[i]
		// First is added, not branched on: that branch mispredicts, while
		// the stop test almost never fires.
		if instrs += b2u(op.First); instrs >= stop && op.First {
			if !m.retire(instrs, op.GuestPC, op.GuestOp) {
				m.creditBlock(node, credited, i, instrs)
				return node
			}
			stop = m.stopAt()
		}

		switch op.Kind {
		case tcg.KNop:
			// nothing

		case tcg.KMovI:
			regs[op.A0] = uint64(op.Imm)
			if tainting && sh.RegsTainted(op.Regs) {
				sh.SetRegMask(op.A0, 0)
			}
		case tcg.KMov:
			regs[op.A0] = regs[op.A1]
			if tainting && sh.RegsTainted(op.Regs) {
				sh.SetRegMask(op.A0, sh.RegMask(op.A1))
			}

		case tcg.KAdd:
			regs[op.A0] = regs[op.A1] + regs[op.A2]
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KSub:
			regs[op.A0] = regs[op.A1] - regs[op.A2]
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KMul:
			regs[op.A0] = regs[op.A1] * regs[op.A2]
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KDiv:
			a, b := int64(regs[op.A1]), int64(regs[op.A2])
			if b == 0 {
				m.fault(node, credited, i, instrs, SIGFPE, "integer divide by zero")
				return node
			}
			if a == math.MinInt64 && b == -1 {
				regs[op.A0] = uint64(a) // wrap like two's-complement hardware
			} else {
				regs[op.A0] = uint64(a / b)
			}
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KMod:
			a, b := int64(regs[op.A1]), int64(regs[op.A2])
			if b == 0 {
				m.fault(node, credited, i, instrs, SIGFPE, "integer modulo by zero")
				return node
			}
			if a == math.MinInt64 && b == -1 {
				regs[op.A0] = 0
			} else {
				regs[op.A0] = uint64(a % b)
			}
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KAddI:
			regs[op.A0] = regs[op.A1] + uint64(op.Imm)
			if tainting && sh.RegsTainted(op.Regs) {
				sh.SetRegMask(op.A0, taint.ImmBinaryMask(tcg.KAddI, sh.RegMask(op.A1), op.Imm))
			}
		case tcg.KMulI:
			regs[op.A0] = regs[op.A1] * uint64(op.Imm)
			if tainting && sh.RegsTainted(op.Regs) {
				sh.SetRegMask(op.A0, taint.ImmBinaryMask(tcg.KMulI, sh.RegMask(op.A1), op.Imm))
			}
		case tcg.KAnd:
			regs[op.A0] = regs[op.A1] & regs[op.A2]
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KOr:
			regs[op.A0] = regs[op.A1] | regs[op.A2]
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KXor:
			regs[op.A0] = regs[op.A1] ^ regs[op.A2]
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KShl:
			sa := regs[op.A2]
			if sa >= 64 {
				regs[op.A0] = 0
			} else {
				regs[op.A0] = regs[op.A1] << sa
			}
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, sa)
			}
		case tcg.KShr:
			sa := regs[op.A2]
			if sa >= 64 {
				regs[op.A0] = 0
			} else {
				regs[op.A0] = regs[op.A1] >> sa
			}
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, sa)
			}
		case tcg.KNot:
			regs[op.A0] = ^regs[op.A1]
			if tainting && sh.RegsTainted(op.Regs) {
				unaryTaint(sh, op)
			}

		case tcg.KFAdd:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) + math.Float64frombits(regs[op.A2]))
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KFSub:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) - math.Float64frombits(regs[op.A2]))
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KFMul:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) * math.Float64frombits(regs[op.A2]))
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KFDiv:
			regs[op.A0] = math.Float64bits(math.Float64frombits(regs[op.A1]) / math.Float64frombits(regs[op.A2]))
			if tainting && sh.RegsTainted(op.Regs) {
				binTaint(sh, op, 0)
			}
		case tcg.KFNeg:
			regs[op.A0] = math.Float64bits(-math.Float64frombits(regs[op.A1]))
			if tainting && sh.RegsTainted(op.Regs) {
				unaryTaint(sh, op)
			}
		case tcg.KCvtIF:
			regs[op.A0] = math.Float64bits(float64(int64(regs[op.A1])))
			if tainting && sh.RegsTainted(op.Regs) {
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
			if tainting && sh.RegsTainted(op.Regs) {
				unaryTaint(sh, op)
			}

		case tcg.KLd64:
			// The TLB hit path is spelled out here (and in the other memory
			// cases) to keep the hot loop free of calls; misses and
			// page-straddling accesses take the accessors.
			addr := regs[op.A1]
			if base := addr &^ (PageSize - 1); addr-base <= PageSize-8 {
				if p := mem.lookup(base); p != nil {
					v := binary.LittleEndian.Uint64(p.data[addr-base : addr-base+8])
					regs[op.A0] = v
					if tainting {
						var mask uint64
						if tp := mem.shadowPage(base, sh); tp != nil {
							mask = tp.Mask64(addr - base)
						}
						if mask|sh.RegMask(op.A0) != 0 {
							m.loadTaint(sh, op, instrs, addr, v, mask, 8, p)
						}
					}
					break
				}
			}
			if bad, ok := m.loadMiss(sh, op, instrs, addr, 8); !ok {
				m.segfault(node, credited, i, instrs, bad, false)
				return node
			}
		case tcg.KLdD:
			// KLdD is the fused KAddI+KLd64: the address temporary (A2) is
			// still written, so machine state matches the unfused pair — its
			// taint too, unless it is T0, which carries none.
			addr := regs[op.A1] + uint64(op.Imm)
			if tainting && op.A2 != tcg.T0 && sh.RegsTainted(op.Regs) {
				sh.SetRegMask(op.A2, taint.ImmBinaryMask(tcg.KLdD, sh.RegMask(op.A1), op.Imm))
			}
			regs[op.A2] = addr
			if base := addr &^ (PageSize - 1); addr-base <= PageSize-8 {
				if p := mem.lookup(base); p != nil {
					v := binary.LittleEndian.Uint64(p.data[addr-base : addr-base+8])
					regs[op.A0] = v
					if tainting {
						var mask uint64
						if tp := mem.shadowPage(base, sh); tp != nil {
							mask = tp.Mask64(addr - base)
						}
						if mask|sh.RegMask(op.A0) != 0 {
							m.loadTaint(sh, op, instrs, addr, v, mask, 8, p)
						}
					}
					break
				}
			}
			if bad, ok := m.loadMiss(sh, op, instrs, addr, 8); !ok {
				m.segfault(node, credited, i, instrs, bad, false)
				return node
			}
		case tcg.KSt64:
			addr := regs[op.A1]
			if base := addr &^ (PageSize - 1); addr-base <= PageSize-8 {
				if p := mem.lookupWrite(base); p != nil {
					v := regs[op.A2]
					binary.LittleEndian.PutUint64(p.data[addr-base:addr-base+8], v)
					if tainting {
						mask, tp := sh.RegMask(op.A2), mem.shadowPage(base, sh)
						if mask != 0 || tp != nil && tp.Mask64(addr-base) != 0 {
							sh.SetMemMask64In(tp, addr, mask)
							m.storeTaint(op, instrs, addr, v, mask, 8, p)
						}
					}
					break
				}
			}
			if bad, ok := m.storeMiss(sh, op, instrs, addr, 8); !ok {
				m.segfault(node, credited, i, instrs, bad, true)
				return node
			}
		case tcg.KStD:
			// KStD is the fused KAddI+KSt64. The temp (A0) must be written
			// before the source (A2) is read: for push they are both SP and
			// the unfused sequence stores the decremented value. As in KLdD,
			// a T0 temp takes no taint.
			addr := regs[op.A1] + uint64(op.Imm)
			if tainting && op.A0 != tcg.T0 && sh.RegsTainted(op.Regs) {
				sh.SetRegMask(op.A0, taint.ImmBinaryMask(tcg.KStD, sh.RegMask(op.A1), op.Imm))
			}
			regs[op.A0] = addr
			if base := addr &^ (PageSize - 1); addr-base <= PageSize-8 {
				if p := mem.lookupWrite(base); p != nil {
					v := regs[op.A2]
					binary.LittleEndian.PutUint64(p.data[addr-base:addr-base+8], v)
					if tainting {
						mask, tp := sh.RegMask(op.A2), mem.shadowPage(base, sh)
						if mask != 0 || tp != nil && tp.Mask64(addr-base) != 0 {
							sh.SetMemMask64In(tp, addr, mask)
							m.storeTaint(op, instrs, addr, v, mask, 8, p)
						}
					}
					break
				}
			}
			if bad, ok := m.storeMiss(sh, op, instrs, addr, 8); !ok {
				m.segfault(node, credited, i, instrs, bad, true)
				return node
			}
		case tcg.KLd8:
			addr := regs[op.A1]
			if p := mem.lookup(addr &^ (PageSize - 1)); p != nil {
				v := uint64(p.data[addr&(PageSize-1)])
				regs[op.A0] = v
				if tainting {
					var mask uint64
					if tp := mem.shadowPage(addr&^(PageSize-1), sh); tp != nil {
						mask = uint64(tp.Mask8(addr & (PageSize - 1)))
					}
					if mask|sh.RegMask(op.A0) != 0 {
						m.loadTaint(sh, op, instrs, addr, v, mask, 1, p)
					}
				}
				break
			}
			if bad, ok := m.loadMiss(sh, op, instrs, addr, 1); !ok {
				m.segfault(node, credited, i, instrs, bad, false)
				return node
			}
		case tcg.KSt8:
			addr := regs[op.A1]
			if p := mem.lookupWrite(addr &^ (PageSize - 1)); p != nil {
				v := regs[op.A2] & 0xff
				p.data[addr&(PageSize-1)] = uint8(v)
				if tainting {
					mask, tp := sh.RegMask(op.A2)&0xff, mem.shadowPage(addr&^(PageSize-1), sh)
					if mask != 0 || tp != nil && tp.Mask8(addr&(PageSize-1)) != 0 {
						sh.SetMemMask8In(tp, addr, uint8(mask))
						m.storeTaint(op, instrs, addr, v, mask, 1, p)
					}
				}
				break
			}
			if bad, ok := m.storeMiss(sh, op, instrs, addr, 1); !ok {
				m.segfault(node, credited, i, instrs, bad, true)
				return node
			}

		case tcg.KSetc:
			m.flags = cmpFlags(int64(regs[op.A1]), int64(regs[op.A2]))
			if tainting && sh.RegsTainted(op.Regs) {
				cmpTaint(sh, op)
			}
		case tcg.KSetcI:
			m.flags = cmpFlags(int64(regs[op.A1]), op.Imm)
			if tainting && sh.RegsTainted(op.Regs) {
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
			if tainting && sh.RegsTainted(op.Regs) {
				cmpTaint(sh, op)
			}

		case tcg.KCmpBr:
			// KCmpBr is the fused KSetc+KBrCond across two guest
			// instructions: compare, retire the branch instruction, then
			// branch — the schedule the unfused pair executed.
			m.flags = cmpFlags(int64(regs[op.A1]), int64(regs[op.A2]))
			if tainting && sh.RegsTainted(op.Regs) {
				cmpTaint(sh, op)
			}
			m.creditBlock(node, credited, i, instrs)
			if !m.retireFused(op, stop) {
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
			// KCmpBrI is KSetcI+KBrCond: Imm is the compare operand, Imm2 the
			// taken target; the fall-through is the instruction after the
			// branch.
			m.flags = cmpFlags(int64(regs[op.A1]), op.Imm)
			if tainting && sh.RegsTainted(op.Regs) {
				sh.SetRegMask(tcg.FlagsReg, taint.CompareMask(sh.RegMask(op.A1), 0))
			}
			m.creditBlock(node, credited, i, instrs)
			if !m.retireFused(op, stop) {
				return node
			}
			instrs = m.counters.Instructions
			if condHolds(op.Cond, m.flags) {
				m.pc = uint64(op.Imm2)
			} else {
				m.pc = op.GuestPC2 + isa.InstrSize
			}
			goto chainTry
		case tcg.KBr:
			m.creditBlock(node, credited, i, instrs)
			m.pc = uint64(op.Imm)
			goto chainTry
		case tcg.KBrCond:
			m.creditBlock(node, credited, i, instrs)
			if condHolds(op.Cond, m.flags) {
				m.pc = uint64(op.Imm)
			} else {
				m.pc = uint64(op.Imm2)
			}
			goto chainTry
		case tcg.KCall:
			m.creditBlock(node, credited, i, instrs)
			sp := regs[tcg.SPReg] - 8
			var p *memPage
			if base := sp &^ (PageSize - 1); sp-base <= PageSize-8 {
				if p = mem.lookupWrite(base); p != nil {
					binary.LittleEndian.PutUint64(p.data[sp-base:sp-base+8], uint64(op.Imm2))
					if tainting {
						if tp := mem.shadowPage(base, sh); tp != nil && tp.Mask64(sp-base) != 0 {
							sh.SetMemMask64In(tp, sp, 0)
						}
					}
				}
			}
			if p == nil {
				if bad, ok := mem.write64(sp, uint64(op.Imm2)); !ok {
					m.pc = op.GuestPC
					m.killSegv(bad, true)
					return node
				}
				if tainting {
					sh.SetMemMask64(sp, 0)
				}
			}
			regs[tcg.SPReg] = sp
			m.pc = uint64(op.Imm)
			goto chainTry
		case tcg.KRet:
			m.creditBlock(node, credited, i, instrs)
			sp := regs[tcg.SPReg]
			var p *memPage
			if base := sp &^ (PageSize - 1); sp-base <= PageSize-8 {
				if p = mem.lookup(base); p != nil {
					m.pc = binary.LittleEndian.Uint64(p.data[sp-base : sp-base+8])
				}
			}
			if p == nil {
				ret, bad, ok := mem.read64(sp)
				if !ok {
					m.pc = op.GuestPC
					m.killSegv(bad, false)
					return node
				}
				m.pc = ret
			}
			regs[tcg.SPReg] = sp + 8
			goto chainTry

		case tcg.KSyscall:
			m.creditBlock(node, credited, i, instrs)
			m.pc = uint64(op.Imm2)
			m.doSyscall(isa.Sys(op.Imm), op.GuestPC)
			return node // KSyscall always ends the TB

		case tcg.KHlt:
			m.creditBlock(node, credited, i, instrs)
			m.pc = op.GuestPC
			m.end(Termination{Reason: ReasonExited, Code: int64(regs[tcg.GPR0]), PC: m.pc})
			return node

		case tcg.KHelper:
			if op.Helper >= 0 && op.Helper < len(m.helpers) {
				m.creditBlock(node, credited, i, instrs)
				credited = i + 1
				m.helpers[op.Helper](m, op)
				instrs = m.counters.Instructions
				if m.term != nil {
					return node
				}
				// The helper may have seeded taint (fault injection) or
				// enabled tracking; the rest of the block must propagate it.
				if tainting {
					sh = m.propagating()
				} else if m.tainting(tb) {
					return execLoop[taintLoop](m, node, i+1, chain)
				}
			}

		default:
			m.fault(node, credited, i, instrs, SIGILL, "unimplemented micro-op "+op.Kind.String())
			return node
		}
	}
	m.creditBlock(node, credited, len(ops)-1, instrs)
	m.pc = tb.NextPC

chainTry:
	// The guard order matches step(): pending aborts first, then the overlay
	// generation (a helper may have flushed translations mid-block, severing
	// every chain), then the edge, and then the dispatch condition execTB
	// would apply to its target; a target the other copy runs goes back to
	// step(), which follows the edge and counts it.
	if !chain || m.abort.p.Load() != nil || m.Trans.Gen() != m.chains.gen {
		return node
	}
	for k := range node.out {
		if e := node.out[k]; e.to != nil && e.pc == m.pc {
			if m.tainting(e.to.tb) != tainting {
				return node
			}
			node.lastHit = k
			node = e.to
			m.counters.ChainedTBs++
			m.counters.TBsExecuted++
			if !tainting {
				m.counters.FastPathTBs++
			}
			start = 0
			goto nextBlock
		}
	}
	return node
}

// noTaint is the shadow the taint copy consults while tracking is off
// (NoFastPath without tracing): nothing in it is ever tainted.
var noTaint taint.Shadow

// propagating returns the shadow the taint copy's arms test and update: the
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

func cmpTaint(sh *taint.Shadow, op *tcg.Op) {
	sh.SetRegMask(tcg.FlagsReg, taint.CompareMask(sh.RegMask(op.A1), sh.RegMask(op.A2)))
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// cmpFlags is the flags value of an integer compare: -1, 0 or +1.
func cmpFlags(a, b int64) int64 {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// loadTaint finishes a load's propagation arm once the loaded bytes or the
// destination carry taint: the destination takes the bytes' mask, and a
// tainted read is an event. p is the page read through, nil on a TLB miss.
func (m *Machine) loadTaint(sh *taint.Shadow, op *tcg.Op, instrs, addr, v, mask uint64, size int, p *memPage) {
	sh.SetRegMask(op.A0, mask)
	if mask != 0 {
		m.memTaintEvent(op, instrs, addr, v, mask, size, false, p)
	}
}

// storeTaint reports a store of tainted bytes, whose mask the caller has
// just written to the shadow, as an event.
func (m *Machine) storeTaint(op *tcg.Op, instrs, addr, v, mask uint64, size int, p *memPage) {
	if mask != 0 {
		m.memTaintEvent(op, instrs, addr, v, mask, size, true, p)
	}
}

// loadMiss is a load's path past the TLB: the accessor reads size bytes at
// addr into A0, then the propagation arm runs given a shadow (the taint copy).
// It reports false, and the unmapped address, when the access faults.
func (m *Machine) loadMiss(sh *taint.Shadow, op *tcg.Op, instrs, addr uint64, size int) (bad uint64, ok bool) {
	var v, mask uint64
	if size == 8 {
		v, bad, ok = m.Mem.read64(addr)
	} else {
		var b uint8
		b, ok = m.Mem.read8(addr)
		v, bad = uint64(b), addr
	}
	if !ok {
		return bad, false
	}
	m.regs[op.A0] = v
	switch {
	case sh == nil:
		return 0, true
	case size == 8:
		mask = sh.MemMask64(addr)
	default:
		mask = uint64(sh.MemMask8(addr))
	}
	if mask|sh.RegMask(op.A0) != 0 {
		m.loadTaint(sh, op, instrs, addr, v, mask, size, nil)
	}
	return 0, true
}

// storeMiss is a store's path past the TLB: the accessor writes A2's low size
// bytes at addr, then the propagation arm runs given a shadow. It reports
// false, and the unmapped address, when the access faults.
func (m *Machine) storeMiss(sh *taint.Shadow, op *tcg.Op, instrs, addr uint64, size int) (bad uint64, ok bool) {
	v, mask := m.regs[op.A2], uint64(0)
	if sh != nil {
		mask = sh.RegMask(op.A2)
	}
	if size == 8 {
		bad, ok = m.Mem.write64(addr, v)
	} else {
		v, mask = v&0xff, mask&0xff
		bad, ok = addr, m.Mem.write8(addr, uint8(v))
	}
	if !ok || sh == nil || (mask == 0 && sh.TaintedBytes() == 0) {
		return bad, ok
	}
	if size == 8 {
		sh.SetMemMask64(addr, mask)
	} else {
		sh.SetMemMask8(addr, uint8(mask))
	}
	m.storeTaint(op, instrs, addr, v, mask, size, nil)
	return 0, true
}

// stopAt is the retired-instruction count at which the loop leaves its
// per-instruction fast path: the next sample boundary or the first count past
// the budget, whichever comes first, and every instruction while an exec
// trace records. A stop the loop keeps after retireFused passed a boundary is
// low, which costs one more call to retire, whose tests are exact.
func (m *Machine) stopAt() uint64 {
	switch {
	case m.execTrace != nil:
		return 0
	case m.maxInstr < m.nextSample:
		return m.maxInstr + 1
	}
	return m.nextSample
}

// retire is what retiring guest instruction number n, at pc, takes once n
// reaches stopAt: the exec-trace record, the budget stop (it returns false)
// and, at nextSample, the sample boundary — the boundary moves one interval
// on and, while tracking is enabled, the sampler gets the tainted-byte count.
func (m *Machine) retire(n, pc uint64, gop isa.Op) bool {
	if m.execTrace != nil {
		m.execTrace.record(pc, gop, n)
	}
	if n > m.maxInstr {
		m.pc = pc
		m.end(Termination{Reason: ReasonBudget, PC: pc})
		return false
	}
	if n == m.nextSample {
		m.counters.Instructions = n
		m.nextSample += m.sampleIv
		if m.TaintEnabled && m.Hooks.Sample != nil {
			m.Hooks.Sample(n, m.Shadow.TaintedBytes())
		}
	}
	return true
}

// retireFused retires the second guest instruction of a cross-instruction
// fused op (KCmpBr), as the unfused schedule did between the pair, given the
// loop's stop. It returns false when the instruction budget terminates the
// run.
func (m *Machine) retireFused(op *tcg.Op, stop uint64) bool {
	m.counters.Instructions++
	m.counters.PerOp[op.GuestOp2]++
	n := m.counters.Instructions
	return n < stop || m.retire(n, op.GuestPC2, op.GuestOp2)
}

// creditBlock writes the retired-instruction count back and credits the
// per-opcode statistics of ops[from..last] of node's block, wherever the loop
// leaves the block or calls out of it. A block executed from its top through
// its final op costs one increment on the node (flushPerOp applies the
// histogram execs-fold); anything else goes through creditPerOp. It is small
// enough to inline into every exit of the loop.
func (m *Machine) creditBlock(node *chainNode, from, last int, instrs uint64) {
	m.counters.Instructions = instrs
	if from != 0 || last != len(node.tb.Ops)-1 {
		m.creditPerOp(node.tb, from, last)
		return
	}
	if node.execs == 0 {
		node.nextDirty, m.dirtyPerOp = m.dirtyPerOp, node
	}
	node.execs++
}

// creditPerOp applies per-opcode counts for ops[from..last] of tb directly:
// the partial executions (kills, budget stops, helper sites) walk the retired
// prefix, which attributes exactly what counting at every instruction would.
func (m *Machine) creditPerOp(tb *tcg.TB, from, last int) {
	for i := from; i <= last; i++ {
		if tb.Ops[i].First {
			m.counters.PerOp[tb.Ops[i].GuestOp]++
		}
	}
}

// flushPerOp folds every dirty chain node's batched block credit into PerOp:
// each complete execution of a block costs one counter increment on its node,
// and the histogram is applied execs-fold here. Partial credits increment
// PerOp directly and so commute with the batch; only a read needs the flush
// (Counters() is the sole read path, so observed values are exact).
func (m *Machine) flushPerOp() {
	for n := m.dirtyPerOp; n != nil; n = n.nextDirty {
		for _, oc := range n.tb.OpCounts {
			m.counters.PerOp[oc.Op] += oc.N * n.execs
		}
		n.execs = 0
	}
	m.dirtyPerOp = nil
}

// fault ends a block at op i with a guest signal, after the write-back and
// the per-opcode credit every exit of the loop makes.
func (m *Machine) fault(node *chainNode, credited, i int, instrs uint64, sig Signal, msg string) {
	m.creditBlock(node, credited, i, instrs)
	m.pc = node.tb.Ops[i].GuestPC
	m.kill(sig, msg)
}

// segfault is fault for an access to unmapped addr (killSegv).
func (m *Machine) segfault(node *chainNode, credited, i int, instrs uint64, addr uint64, write bool) {
	m.creditBlock(node, credited, i, instrs)
	m.pc = node.tb.Ops[i].GuestPC
	m.killSegv(addr, write)
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
