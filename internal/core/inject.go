package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"chaser/internal/isa"
	"chaser/internal/tcg"
	"chaser/internal/vm"
)

// Context is handed to an Injector when its condition fires: the machine,
// the targeted instruction (both its micro-op and decoded guest form), the
// execution count that triggered, and a deterministic per-rank RNG. It is the
// injector's for the call only: the rank reuses it.
type Context struct {
	Machine   *vm.Machine
	Op        *tcg.Op
	Instr     isa.Instr
	ExecCount uint64
	Rng       *rand.Rand
	// Trace marks whether propagation tracing is active; corruption helpers
	// seed taint only when it is.
	Trace bool
}

// InjectionRecord documents one performed injection (accountability).
type InjectionRecord struct {
	Rank      int    `json:"rank"`
	PC        uint64 `json:"pc"`
	GuestOp   isa.Op `json:"-"`
	GuestOpS  string `json:"op"`
	ExecCount uint64 `json:"exec_count"`
	InstrNum  uint64 `json:"instr_num"`
	Target    string `json:"target"` // "reg r3", "reg f1", "mem 0x..."
	Mask      uint64 `json:"mask"`
	Before    uint64 `json:"before"`
	After     uint64 `json:"after"`
}

// String renders the record for logs.
func (r InjectionRecord) String() string {
	return fmt.Sprintf("rank %d: %s @ %#x exec#%d %s mask=%#x %#x -> %#x",
		r.Rank, r.GuestOpS, r.PC, r.ExecCount, r.Target, r.Mask, r.Before, r.After)
}

// ErrDeclined lets an Injector turn down an injection opportunity: the
// attempt is not recorded and does not count against Spec.MaxInjections.
// Custom injectors use it to wait for a specific dynamic context (a
// particular effective address, register value, etc.) beyond what the
// Condition can express.
var ErrDeclined = errors.New("core: injection declined")

// Injector performs the actual corruption (the "how to inject" interface).
// Implementations use CorruptRegister / CorruptMemory or manipulate the
// machine directly, and return a record of what they did. Returning an
// error (conventionally ErrDeclined) skips the opportunity.
type Injector interface {
	Inject(ctx *Context) (InjectionRecord, error)
}

// RandomBitMask returns a mask with exactly `bits` distinct random bits set
// (bits is clamped to [1, 64]).
func RandomBitMask(bits int, rng *rand.Rand) uint64 {
	if bits < 1 {
		bits = 1
	}
	if bits > 64 {
		bits = 64
	}
	var mask uint64
	for count := 0; count < bits; {
		b := uint(rng.Intn(64))
		if mask&(1<<b) == 0 {
			mask |= 1 << b
			count++
		}
	}
	return mask
}

// CorruptRegister XOR-flips mask bits in a micro-register and, when tracing,
// marks the flipped bits tainted. It returns the before/after values.
// This is the exported CORRUPT_REGISTER capability.
func CorruptRegister(m *vm.Machine, reg tcg.MReg, mask uint64, trace bool) (before, after uint64) {
	before = m.Reg(reg)
	after = before ^ mask
	m.SetReg(reg, after)
	if trace {
		m.Shadow.SetRegMask(reg, m.Shadow.RegMask(reg)|mask)
	}
	return before, after
}

// CorruptMemory XOR-flips mask bits in the 64-bit word at addr and, when
// tracing, marks the flipped bits tainted. This is the exported
// CORRUPT_MEMORY capability. It fails when addr is unmapped.
func CorruptMemory(m *vm.Machine, addr uint64, mask uint64, trace bool) (before, after uint64, err error) {
	before, err = m.Mem.Read64(addr)
	if err != nil {
		return 0, 0, fmt.Errorf("core: corrupt memory: %w", err)
	}
	after = before ^ mask
	if err := m.Mem.Write64(addr, after); err != nil {
		return 0, 0, fmt.Errorf("core: corrupt memory: %w", err)
	}
	if trace {
		m.Shadow.SetMemMask64(addr, m.Shadow.MemMask64(addr)|mask)
	}
	return before, after, nil
}

// OperandRegs returns the micro-registers holding the source operands of a
// guest instruction — the candidates operand-level injectors corrupt.
func OperandRegs(ins isa.Instr) []tcg.MReg {
	regs := sourceRegs(ins)
	return append([]tcg.MReg(nil), regs.regs[:regs.n]...)
}

// operands is a guest instruction's source micro-registers: the first n of
// regs.
type operands struct {
	regs [2]tcg.MReg
	n    int
}

func one(r tcg.MReg) operands    { return operands{regs: [2]tcg.MReg{r}, n: 1} }
func two(r, s tcg.MReg) operands { return operands{regs: [2]tcg.MReg{r, s}, n: 2} }

// sourceRegs returns the micro-registers holding the source operands of a
// guest instruction — the candidates the default injector corrupts.
func sourceRegs(ins isa.Instr) operands {
	g, f := tcg.GPR, tcg.FPR
	switch ins.Op {
	case isa.OpMov, isa.OpNot, isa.OpAddI, isa.OpMulI:
		return one(g(ins.Rs1))
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr:
		return two(g(ins.Rs1), g(ins.Rs2))
	case isa.OpFMov, isa.OpFNeg:
		return one(f(ins.Rs1))
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv:
		return two(f(ins.Rs1), f(ins.Rs2))
	case isa.OpCvtIF:
		return one(g(ins.Rs1))
	case isa.OpCvtFI:
		return one(f(ins.Rs1))
	case isa.OpLd, isa.OpLdB, isa.OpFLd:
		return one(g(ins.Rs1)) // base address register
	case isa.OpSt, isa.OpStB:
		return two(g(ins.Rs1), g(ins.Rs2)) // base and value
	case isa.OpFSt:
		return two(g(ins.Rs1), f(ins.Rs2))
	case isa.OpCmp:
		return two(g(ins.Rs1), g(ins.Rs2))
	case isa.OpCmpI:
		return one(g(ins.Rs1))
	case isa.OpFCmp:
		return two(f(ins.Rs1), f(ins.Rs2))
	case isa.OpPush:
		return one(g(ins.Rs1))
	case isa.OpFPush:
		return one(f(ins.Rs1))
	}
	return operands{}
}

// OperandInjector is the default fault injector: it flips Bits random bits
// in one randomly chosen source operand of the targeted instruction,
// immediately before the instruction executes. For loads, the memory word
// being read is itself a source operand (like the memory operand of an x86
// mov) and is corrupted with the same probability as the address register.
type OperandInjector struct {
	// Bits is the number of bits to flip per injection (default 1).
	Bits int
}

var _ Injector = OperandInjector{}

// Inject implements Injector.
func (o OperandInjector) Inject(ctx *Context) (InjectionRecord, error) {
	m, ins := ctx.Machine, ctx.Instr
	rec := InjectionRecord{
		Rank:      m.Rank,
		PC:        ctx.Op.GuestPC,
		GuestOp:   ins.Op,
		GuestOpS:  ins.Op.String(),
		ExecCount: ctx.ExecCount,
		InstrNum:  m.Instructions(),
	}
	var addr uint64
	inMem := false
	f := drawOperandFault(ctx.Rng, o.Bits, ins, func(mask uint64) bool {
		addr = m.GPR(ins.Rs1) + uint64(ins.Imm)
		var err error
		rec.Before, rec.After, err = CorruptMemory(m, addr, mask, ctx.Trace)
		inMem = err == nil
		return inMem
	})
	rec.Mask = f.Mask
	if inMem {
		rec.Target = memTarget(addr)
		return rec, nil
	}
	rec.Before, rec.After = CorruptRegister(m, f.Reg, f.Mask, ctx.Trace)
	rec.Target = regTargets[f.Reg]
	return rec, nil
}

// regTargets are a record's Target for each micro-register, made once.
var regTargets = func() (t [tcg.NumMRegs]string) {
	for r := range t {
		t[r] = "reg " + tcg.MReg(r).String()
	}
	return t
}()

// memTarget is a record's Target for the corrupted word at addr:
// fmt.Sprintf("mem %#x", addr), in one allocation.
func memTarget(addr uint64) string {
	var buf [24]byte
	return string(strconv.AppendUint(append(buf[:0], "mem 0x"...), addr, 16))
}

// OperandFault is OperandInjector's decision for one injection: the bits it
// flips, and where. Mem is set when a load's memory word is to take them; Reg
// takes them otherwise, and when that word turns out to be unmapped.
type OperandFault struct {
	Mask uint64
	Mem  bool
	Reg  tcg.MReg
}

// PlanOperandFault returns the decision OperandInjector{Bits: bits} makes at
// instruction ins on rank of a run whose spec seed is seed, without a
// machine: it draws the rank's stream (rankStream) as the injector does.
// Where the injector corrupts a load's memory word it draws no register, but
// the plan draws the one it would fall back to, so the plan may be finer than
// the fault, never coarser: at one paused instruction of one world, two runs
// whose plans are equal inject the same fault.
func PlanOperandFault(seed int64, rank, bits int, ins isa.Instr) OperandFault {
	return drawOperandFault(rankStream(seed, rank), bits, ins, nil)
}

// drawOperandFault draws OperandInjector's decision from rng: the mask, then
// for a load a coin between its memory word and a register, then the
// register — unless the coin chose the word and memory, handed the mask,
// reports that the word took it. A nil memory never takes it. This is the
// injector's one sequence of draws, shared with the plan.
func drawOperandFault(rng *rand.Rand, bits int, ins isa.Instr, memory func(mask uint64) bool) OperandFault {
	if bits == 0 {
		bits = 1
	}
	f := OperandFault{Mask: RandomBitMask(bits, rng)}
	// Loads read a memory operand: corrupt the in-memory source word half
	// the time, the address register otherwise. An unmapped effective
	// address (e.g. the base register was wild already) falls through to
	// register corruption.
	if (ins.Op == isa.OpLd || ins.Op == isa.OpFLd || ins.Op == isa.OpLdB) && rng.Intn(2) == 0 {
		f.Mem = true
		if memory != nil && memory(f.Mask) {
			return f
		}
	}
	if srcs := sourceRegs(ins); srcs.n > 0 {
		f.Reg = srcs.regs[rng.Intn(srcs.n)]
	} else {
		// Instructions without register sources (movi, branches): corrupt a
		// random general-purpose register, modelling a datapath upset.
		f.Reg = tcg.GPR(isa.Reg(rng.Intn(isa.NumRegs)))
	}
	return f
}

// IdentityInjector is the overhead-measurement injector of Section IV-D: it
// "injects the original values" — i.e. performs every step of a real
// injection, including taint seeding when tracing, but flips no bits, so
// application behaviour is unchanged and performance comparisons are fair.
type IdentityInjector struct {
	// Bits sizes the taint mask that a real injection would have used.
	Bits int
}

var _ Injector = IdentityInjector{}

// Inject implements Injector.
func (o IdentityInjector) Inject(ctx *Context) (InjectionRecord, error) {
	bits := o.Bits
	if bits == 0 {
		bits = 1
	}
	srcs := sourceRegs(ctx.Instr)
	var reg tcg.MReg
	if srcs.n > 0 {
		reg = srcs.regs[ctx.Rng.Intn(srcs.n)]
	} else {
		reg = tcg.GPR(isa.Reg(ctx.Rng.Intn(isa.NumRegs)))
	}
	mask := RandomBitMask(bits, ctx.Rng)
	before := ctx.Machine.Reg(reg)
	ctx.Machine.SetReg(reg, before) // write the original value back
	if ctx.Trace {
		sh := ctx.Machine.Shadow
		sh.SetRegMask(reg, sh.RegMask(reg)|mask)
	}
	return InjectionRecord{
		Rank:      ctx.Machine.Rank,
		PC:        ctx.Op.GuestPC,
		GuestOp:   ctx.Instr.Op,
		GuestOpS:  ctx.Instr.Op.String(),
		ExecCount: ctx.ExecCount,
		InstrNum:  ctx.Machine.Instructions(),
		Target:    "reg " + reg.String() + " (identity)",
		Mask:      mask,
		Before:    before,
		After:     before,
	}, nil
}
