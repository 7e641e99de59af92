// Package tcg implements a Tiny-Code-Generator-style dynamic binary
// translation layer for the guest ISA, mirroring the role QEMU's TCG plays in
// the original Chaser.
//
// Guest instructions are translated into architecture-independent micro-ops
// grouped into translation blocks (TBs). TBs are cached by guest program
// counter; the cache can be flushed to force retranslation — which is how
// Chaser arms its just-in-time fault injector when a target process is
// created. Instrumentation hooks run at translation time and may prepend
// helper-call micro-ops in front of any guest instruction, exactly like the
// DECAF_inject_fault callback insertion shown in Fig. 3 of the paper.
package tcg

import (
	"fmt"

	"chaser/internal/isa"
)

// MReg addresses the unified micro-register file used by micro-ops: guest
// GPRs, guest FPRs (as raw IEEE-754 bits), two address temporaries, and the
// flags register.
type MReg uint8

// Micro-register file layout.
const (
	// GPR0 through GPR0+15 are the guest general-purpose registers.
	GPR0 MReg = 0
	// FPR0 through FPR0+15 are the guest floating-point registers.
	FPR0 MReg = 16
	// T0 and T1 are translator-internal temporaries (address computation).
	T0 MReg = 32
	T1 MReg = 33
	// FlagsReg holds the last comparison result as -1, 0 or +1.
	FlagsReg MReg = 34
	// NumMRegs is the size of the micro-register file.
	NumMRegs = 35
)

// GPR returns the micro-register for a guest general-purpose register.
func GPR(r isa.Reg) MReg { return GPR0 + MReg(r) }

// FPR returns the micro-register for a guest floating-point register.
func FPR(r isa.Reg) MReg { return FPR0 + MReg(r) }

// SPReg is the micro-register holding the guest stack pointer.
const SPReg = GPR0 + MReg(isa.SP)

// IsFPR reports whether m addresses the floating-point file.
func IsFPR(m MReg) bool { return m >= FPR0 && m < FPR0+16 }

// String names the micro-register.
func (m MReg) String() string {
	switch {
	case m < FPR0:
		return fmt.Sprintf("r%d", uint8(m))
	case m < FPR0+16:
		return fmt.Sprintf("f%d", uint8(m-FPR0))
	case m == T0:
		return "t0"
	case m == T1:
		return "t1"
	case m == FlagsReg:
		return "flags"
	}
	return fmt.Sprintf("mreg(%d)", uint8(m))
}

// Kind is a micro-op kind.
type Kind uint8

// Micro-op kinds. Arithmetic ops compute A0 <- A1 op A2; immediate forms use
// Imm instead of A2. Floating-point kinds interpret register bits as float64.
const (
	KInvalid Kind = iota

	KNop
	KMovI // A0 <- Imm
	KMov  // A0 <- A1
	KAdd
	KSub
	KMul
	KDiv  // SIGFPE on zero divisor
	KMod  // SIGFPE on zero divisor
	KAddI // A0 <- A1 + Imm
	KMulI // A0 <- A1 * Imm
	KAnd
	KOr
	KXor
	KShl
	KShr
	KNot // A0 <- ^A1

	KFAdd
	KFSub
	KFMul
	KFDiv
	KFNeg // A0 <- -A1
	KCvtIF
	KCvtFI

	KLd64 // A0 <- mem64[A1]
	KSt64 // mem64[A1] <- A2
	KLd8  // A0 <- zext mem8[A1]
	KSt8  // mem8[A1] <- low byte of A2

	KSetc  // flags <- sign(A1 - A2)
	KSetcI // flags <- sign(A1 - Imm)
	KFSetc // flags <- float compare of A1, A2

	KBr     // goto Imm; ends TB
	KBrCond // if flags satisfies Cond goto Imm else Imm2; ends TB
	KCall   // push Imm2 (return address); goto Imm; ends TB
	KRet    // pop return address; goto it; ends TB

	KSyscall // invoke syscall Imm; continues at Imm2
	KHlt     // terminate process
	KHelper  // invoke registered helper Helper (instrumentation)

	// Fused kinds produced by the peephole fusion pass (fuse.go), never by
	// expand. They collapse the two most common micro-op pairs into single
	// dispatches, like QEMU TCG's compare-and-branch and addressing-mode
	// folding.
	KCmpBr // fused KSetc+KBrCond: flags <- sign(A1-A2); branch; ends TB
	// KCmpBrI is the immediate form: flags <- sign(A1-Imm); if flags satisfies
	// Cond goto Imm2 else fall through to GuestPC2+InstrSize. The pair needs
	// three immediates and Op carries two, so the fall-through is recomputed
	// from the branch's guest address; fusion only fires when the two agree.
	KCmpBrI
	KLdD // fused KAddI+KLd64: A2 <- A1+Imm; A0 <- mem64[A1+Imm]
	KStD // fused KAddI+KSt64: A0 <- A1+Imm; mem64[A1+Imm] <- A2

	kindMax
)

var kindNames = [...]string{
	KInvalid: "invalid",
	KNop:     "nop",
	KMovI:    "movi",
	KMov:     "mov",
	KAdd:     "add",
	KSub:     "sub",
	KMul:     "mul",
	KDiv:     "div",
	KMod:     "mod",
	KAddI:    "addi",
	KMulI:    "muli",
	KAnd:     "and",
	KOr:      "or",
	KXor:     "xor",
	KShl:     "shl",
	KShr:     "shr",
	KNot:     "not",
	KFAdd:    "fadd",
	KFSub:    "fsub",
	KFMul:    "fmul",
	KFDiv:    "fdiv",
	KFNeg:    "fneg",
	KCvtIF:   "cvtif",
	KCvtFI:   "cvtfi",
	KLd64:    "ld64",
	KSt64:    "st64",
	KLd8:     "ld8",
	KSt8:     "st8",
	KSetc:    "setc",
	KSetcI:   "setci",
	KFSetc:   "fsetc",
	KBr:      "br",
	KBrCond:  "brcond",
	KCall:    "call",
	KRet:     "ret",
	KSyscall: "syscall",
	KHlt:     "hlt",
	KHelper:  "call_helper",
	KCmpBr:   "cmpbr",
	KCmpBrI:  "cmpbri",
	KLdD:     "ldd",
	KStD:     "std",
}

// String returns the micro-op kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is one translated micro-operation.
type Op struct {
	Kind Kind
	A0   MReg
	A1   MReg
	A2   MReg
	Imm  int64
	// Imm2 carries the fall-through or return address for control ops and
	// the continuation PC for syscalls.
	Imm2 int64
	// Cond is the guest conditional-branch opcode for KBrCond.
	Cond isa.Op
	// Helper identifies the registered helper for KHelper micro-ops.
	Helper int

	// GuestPC is the address of the guest instruction this op belongs to;
	// GuestOp is its opcode. First marks the first micro-op of a guest
	// instruction: the execution engine counts retired guest instructions
	// at First boundaries.
	GuestPC uint64
	GuestOp isa.Op
	First   bool

	// GuestPC2/GuestOp2 identify the second guest instruction covered by a
	// cross-instruction fused op (KCmpBr, KCmpBrI); the engine retires it
	// explicitly since its First boundary was folded away. Zero for every
	// other kind.
	GuestPC2 uint64
	GuestOp2 isa.Op

	// Regs is the op's taint footprint: bit r is set for every
	// micro-register r whose shadow mask the op's taint rule reads or writes,
	// the flags register included. An address is not data — no rule reads its
	// taint — so a memory op leaves its address operand out, and T0, which
	// only addressing writes and only an access reads, carries no taint: an
	// op that writes it has no footprint, and a fused access through it has
	// only its data register's. The translator fills Regs in on a block's
	// final schedule; the taint-aware loop asks the shadow about the whole set
	// in one test.
	Regs uint64
}

// Operand roles of a kind, for setRegs.
const (
	usesA0 = 1 << iota
	usesA1
	usesA2
	usesFlags

	usesA0A1   = usesA0 | usesA1
	usesA0A1A2 = usesA0 | usesA1 | usesA2
)

// kindOperands says which operand fields each kind reads or writes as data
// (see the kind list: A0 <- A1 op A2): a plain access's address (A1) is not
// data, while a fused access's base (A1) feeds its address temporary. Control,
// syscall and helper kinds touch registers only outside the operand fields
// and have no entry.
var kindOperands = [kindMax]uint8{
	KMovI: usesA0,
	KMov:  usesA0A1, KAddI: usesA0A1, KMulI: usesA0A1, KNot: usesA0A1,
	KFNeg: usesA0A1, KCvtIF: usesA0A1, KCvtFI: usesA0A1,
	KAdd: usesA0A1A2, KSub: usesA0A1A2, KMul: usesA0A1A2, KDiv: usesA0A1A2, KMod: usesA0A1A2,
	KAnd: usesA0A1A2, KOr: usesA0A1A2, KXor: usesA0A1A2, KShl: usesA0A1A2, KShr: usesA0A1A2,
	KFAdd: usesA0A1A2, KFSub: usesA0A1A2, KFMul: usesA0A1A2, KFDiv: usesA0A1A2,
	KLd64: usesA0, KLd8: usesA0,
	KSt64: usesA2, KSt8: usesA2,
	KLdD: usesA0A1A2, KStD: usesA0A1A2,
	KSetc: usesA1 | usesA2 | usesFlags, KFSetc: usesA1 | usesA2 | usesFlags, KCmpBr: usesA1 | usesA2 | usesFlags,
	KSetcI: usesA1 | usesFlags, KCmpBrI: usesA1 | usesFlags,
	KBrCond: usesFlags,
}

// setRegs fills in the Regs of every op of a final schedule and returns
// their union, the block's footprint.
func setRegs(ops []Op) uint64 {
	var all uint64
	for i := range ops {
		op := &ops[i]
		op.Regs = 0
		if op.Kind >= kindMax {
			continue // a hook's op the engine will refuse
		}
		uses := kindOperands[op.Kind]
		switch {
		case op.Kind == KLdD && op.A2 == T0:
			uses = usesA0 // the base only feeds T0
		case op.Kind == KStD && op.A0 == T0:
			uses = usesA2
		case uses&usesA0 != 0 && op.A0 == T0:
			uses = 0 // addressing
		}
		for j, r := range [...]MReg{op.A0, op.A1, op.A2, FlagsReg} {
			if uses&(1<<j) != 0 {
				op.Regs |= 1 << r
			}
		}
		all |= op.Regs
	}
	return all
}

// String renders the micro-op for debugging and TB dumps.
func (o Op) String() string {
	switch o.Kind {
	case KMovI:
		return fmt.Sprintf("movi_i64 %s, %d", o.A0, o.Imm)
	case KAddI, KMulI:
		return fmt.Sprintf("%s_i64 %s, %s, %d", o.Kind, o.A0, o.A1, o.Imm)
	case KMov, KNot, KFNeg, KCvtIF, KCvtFI:
		return fmt.Sprintf("%s %s, %s", o.Kind, o.A0, o.A1)
	case KLd64, KLd8:
		return fmt.Sprintf("%s %s, [%s]", o.Kind, o.A0, o.A1)
	case KSt64, KSt8:
		return fmt.Sprintf("%s [%s], %s", o.Kind, o.A1, o.A2)
	case KSetc, KFSetc:
		return fmt.Sprintf("%s flags, %s, %s", o.Kind, o.A1, o.A2)
	case KSetcI:
		return fmt.Sprintf("setci flags, %s, %d", o.A1, o.Imm)
	case KBr:
		return fmt.Sprintf("br %#x", uint64(o.Imm))
	case KBrCond:
		return fmt.Sprintf("brcond(%s) %#x else %#x", o.Cond, uint64(o.Imm), uint64(o.Imm2))
	case KCmpBr:
		return fmt.Sprintf("cmpbr(%s) %s, %s -> %#x else %#x", o.Cond, o.A1, o.A2, uint64(o.Imm), uint64(o.Imm2))
	case KCmpBrI:
		return fmt.Sprintf("cmpbri(%s) %s, %d -> %#x else %#x", o.Cond, o.A1, o.Imm, uint64(o.Imm2), o.GuestPC2+isa.InstrSize)
	case KLdD:
		return fmt.Sprintf("ldd %s, [%s%+d] (addr %s)", o.A0, o.A1, o.Imm, o.A2)
	case KStD:
		return fmt.Sprintf("std [%s%+d], %s (addr %s)", o.A1, o.Imm, o.A2, o.A0)
	case KCall:
		return fmt.Sprintf("call %#x ret %#x", uint64(o.Imm), uint64(o.Imm2))
	case KSyscall:
		return fmt.Sprintf("syscall %d next %#x", o.Imm, uint64(o.Imm2))
	case KHelper:
		return fmt.Sprintf("call_helper #%d (%s @ %#x)", o.Helper, o.GuestOp, o.GuestPC)
	case KNop, KRet, KHlt:
		return o.Kind.String()
	default:
		return fmt.Sprintf("%s %s, %s, %s", o.Kind, o.A0, o.A1, o.A2)
	}
}

// TB is a translation block: the micro-ops for a straight-line run of guest
// instructions starting at PC.
//
// A TB is immutable once returned by a Translator: clean blocks are shared
// between machines through a BaseCache, so per-execution state (QEMU-style
// block chaining, generation checks) lives in per-machine tables inside the
// execution engine, never on the block itself.
type TB struct {
	PC       uint64
	Ops      []Op
	GuestLen int // number of guest instructions covered
	// NextPC is the fall-through continuation when the block does not end in
	// an explicit control transfer (e.g. it hit MaxTBInstrs).
	NextPC uint64
	// OpCounts is the block's guest-opcode histogram over First micro-ops
	// (fused-away second instructions excluded — the engine retires those
	// explicitly). A complete execution of the block retires exactly these
	// counts, letting the interpreter credit per-opcode statistics once per
	// block instead of once per instruction.
	OpCounts []OpCount
	// Regs is the block's taint footprint, the union of its ops' Regs: while
	// no memory byte is tainted, a block none of whose registers carries
	// taint can neither create nor move any, and runs on the taint-free copy
	// of the loop.
	Regs uint64
}

// OpCount is one entry of a TB's precomputed guest-opcode histogram.
type OpCount struct {
	Op isa.Op
	N  uint64
}

// countOps builds a TB's OpCounts histogram from its final op schedule.
func countOps(ops []Op) []OpCount {
	var counts [256]uint64
	for i := range ops {
		if ops[i].First {
			counts[ops[i].GuestOp]++
		}
	}
	var out []OpCount
	for op, n := range counts {
		if n != 0 {
			out = append(out, OpCount{Op: isa.Op(op), N: n})
		}
	}
	return out
}

// String dumps the block like QEMU's `-d op` log.
func (tb *TB) Dump() string {
	out := fmt.Sprintf("TB @ %#x (%d guest instrs)\n", tb.PC, tb.GuestLen)
	for _, op := range tb.Ops {
		marker := "   "
		if op.First {
			marker = " * "
		}
		out += fmt.Sprintf("%s%s\n", marker, op)
	}
	return out
}
