package tcg

import "chaser/internal/isa"

// The fusion pass runs before the peephole optimizer and collapses the two
// hottest micro-op pairs the expander emits into single fused dispatches,
// mirroring QEMU TCG's compare-and-branch lowering and base+displacement
// addressing folding. Unlike optimize (strictly 1:1 rewrites), fusion is 2:1
// and therefore has its own contract:
//
//   - KAddI T0-style addressing + KLd64/KSt64 within ONE guest instruction
//     fuses to KLdD/KStD. The fused op keeps the address temporary as an
//     explicit operand and the engine still writes the computed address into
//     it, so architectural state stays bitwise identical to the unfused
//     sequence, and so does taint state: a T0 temporary carries no taint in
//     either, and any other (push's SP) takes its base's, as KAddI gives it.
//   - KSetc + KBrCond across TWO adjacent guest instructions fuses to KCmpBr.
//     The branch's guest identity moves into GuestPC2/GuestOp2 and the engine
//     retires the second instruction explicitly, so instruction counters,
//     traces, budget checks, and sampling see exactly the unfused schedule.
//   - KSetcI + KBrCond fuses the same way to KCmpBrI (the loop-latch shape
//     `cmpi; jcc`). The pair carries three immediates — compare operand plus
//     two branch targets — and Op has two slots, so the fused op keeps the
//     compare immediate in Imm, the taken target in Imm2, and recomputes the
//     fall-through as GuestPC2+InstrSize. Fusion fires only when the branch's
//     fall-through actually equals that (always true for expander output; the
//     guard keeps hand-built op streams honest).
//
// Fusion never crosses a KHelper: instrumentation pre-ops sit between the
// candidate pair and break adjacency, so a hooked instruction automatically
// falls back to the unfused (and instrumented) sequence.

// fuse rewrites a block's op slice, returning the fused slice and the number
// of fusions performed. The input slice is reused as backing storage: the
// write cursor never passes the read cursor, so this is safe in place.
func fuse(ops []Op) ([]Op, uint64) {
	var n uint64
	out := ops[:0]
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		if i+1 < len(ops) {
			next := &ops[i+1]
			switch {
			case op.Kind == KSetc && next.Kind == KBrCond && op.First && next.First:
				// cmp ; jcc  ->  cmpbr. The fused op inherits the compare's
				// identity (First, GuestPC, GuestOp, A1/A2) and carries the
				// branch targets, condition, and second guest instruction.
				f := op
				f.Kind = KCmpBr
				f.Imm, f.Imm2, f.Cond = next.Imm, next.Imm2, next.Cond
				f.GuestPC2, f.GuestOp2 = next.GuestPC, next.GuestOp
				out = append(out, f)
				i++
				n++
				continue
			case op.Kind == KSetcI && next.Kind == KBrCond && op.First && next.First &&
				uint64(next.Imm2) == next.GuestPC+isa.InstrSize:
				// cmpi ; jcc  ->  cmpbri. Imm stays the compare immediate,
				// Imm2 becomes the taken target; the fall-through is derived
				// from GuestPC2 at execution time.
				f := op
				f.Kind = KCmpBrI
				f.Imm2, f.Cond = next.Imm, next.Cond
				f.GuestPC2, f.GuestOp2 = next.GuestPC, next.GuestOp
				out = append(out, f)
				i++
				n++
				continue
			case op.Kind == KAddI && !next.First && op.GuestPC == next.GuestPC &&
				next.A1 == op.A0 &&
				(next.Kind == KLd64 || next.Kind == KSt64):
				// addi temp, base, disp ; ld64/st64 [temp]  ->  ldd/std.
				// KLdD: A0=dst  A1=base A2=addr-temp Imm=disp
				// KStD: A0=addr-temp A1=base A2=src  Imm=disp
				f := *next
				if next.Kind == KLd64 {
					f.Kind = KLdD
					f.A2 = op.A0
				} else {
					f.Kind = KStD
					f.A0 = op.A0
				}
				f.A1 = op.A1
				f.Imm = op.Imm
				f.First = op.First
				out = append(out, f)
				i++
				n++
				continue
			}
		}
		out = append(out, op)
	}
	return out, n
}
