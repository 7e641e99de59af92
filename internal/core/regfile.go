package core

import (
	"chaser/internal/isa"
	"chaser/internal/tcg"
)

// RegisterFileInjector models a transient upset in the register file itself
// — the fault model of the paper's CLAMR case study ("injecting random
// transient errors into registers"): when the condition fires, a random
// register from the configured file (GPRs, FPRs, or both) is corrupted,
// regardless of whether the triggering instruction uses it. Faults in dead
// registers are naturally benign, which is part of what the case study
// measures.
type RegisterFileInjector struct {
	// Bits is the number of bits to flip (default 1).
	Bits int
	// File selects which register file to target.
	File RegisterFile
}

// RegisterFile selects injection targets for RegisterFileInjector.
type RegisterFile int

// Register files.
const (
	// BothFiles draws uniformly from the 32 GPR+FPR registers.
	BothFiles RegisterFile = iota
	// GPRFile targets general-purpose registers only.
	GPRFile
	// FPRFile targets floating-point registers only (the CLAMR study).
	FPRFile
)

var _ Injector = RegisterFileInjector{}

// Inject implements Injector.
func (r RegisterFileInjector) Inject(ctx *Context) (InjectionRecord, error) {
	bits := r.Bits
	if bits == 0 {
		bits = 1
	}
	var reg tcg.MReg
	switch r.File {
	case GPRFile:
		reg = tcg.GPR(isa.Reg(ctx.Rng.Intn(isa.NumRegs)))
	case FPRFile:
		reg = tcg.FPR(isa.Reg(ctx.Rng.Intn(isa.NumRegs)))
	default:
		n := ctx.Rng.Intn(2 * isa.NumRegs)
		if n < isa.NumRegs {
			reg = tcg.GPR(isa.Reg(n))
		} else {
			reg = tcg.FPR(isa.Reg(n - isa.NumRegs))
		}
	}
	mask := RandomBitMask(bits, ctx.Rng)
	before, after := CorruptRegister(ctx.Machine, reg, mask, ctx.Trace)
	return InjectionRecord{
		Rank:      ctx.Machine.Rank,
		PC:        ctx.Op.GuestPC,
		GuestOp:   ctx.Instr.Op,
		GuestOpS:  ctx.Instr.Op.String(),
		ExecCount: ctx.ExecCount,
		InstrNum:  ctx.Machine.Instructions(),
		Target:    "regfile " + reg.String(),
		Mask:      mask,
		Before:    before,
		After:     after,
	}, nil
}
