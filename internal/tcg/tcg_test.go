package tcg

import (
	"strings"
	"testing"

	"chaser/internal/isa"
)

func prog(code ...isa.Instr) *isa.Program {
	return &isa.Program{Name: "t", Entry: isa.CodeBase, Code: code}
}

func TestMRegMapping(t *testing.T) {
	if GPR(isa.R0) != GPR0 || GPR(isa.SP) != SPReg {
		t.Error("GPR mapping wrong")
	}
	if FPR(isa.F0) != FPR0 || FPR(isa.F15) != FPR0+15 {
		t.Error("FPR mapping wrong")
	}
	if !IsFPR(FPR(isa.F3)) || IsFPR(GPR(isa.R3)) || IsFPR(T0) {
		t.Error("IsFPR wrong")
	}
	names := []struct {
		m    MReg
		want string
	}{
		{GPR(isa.R5), "r5"}, {FPR(isa.F7), "f7"}, {T0, "t0"}, {T1, "t1"}, {FlagsReg, "flags"},
	}
	for _, tt := range names {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("MReg.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestExpandArithmetic(t *testing.T) {
	tr := NewTranslator(prog(
		isa.Instr{Op: isa.OpMovI, Rd: isa.R1, Imm: 5},
		isa.Instr{Op: isa.OpAdd, Rd: isa.R2, Rs1: isa.R1, Rs2: isa.R1},
		isa.Instr{Op: isa.OpFAdd, Rd: isa.F1, Rs1: isa.F2, Rs2: isa.F3},
		isa.Instr{Op: isa.OpHlt},
	))
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatalf("Block: %v", err)
	}
	if tb.GuestLen != 4 {
		t.Fatalf("GuestLen = %d, want 4", tb.GuestLen)
	}
	if len(tb.Ops) != 4 {
		t.Fatalf("ops = %d, want 4: %s", len(tb.Ops), tb.Dump())
	}
	if tb.Ops[0].Kind != KMovI || tb.Ops[0].A0 != GPR(isa.R1) || tb.Ops[0].Imm != 5 {
		t.Errorf("op0 = %+v", tb.Ops[0])
	}
	if tb.Ops[2].Kind != KFAdd || tb.Ops[2].A0 != FPR(isa.F1) {
		t.Errorf("op2 = %+v", tb.Ops[2])
	}
	for i, op := range tb.Ops {
		if !op.First {
			t.Errorf("op %d not marked First", i)
		}
	}
}

func TestExpandMemoryUsesAddressTemp(t *testing.T) {
	p := prog(
		isa.Instr{Op: isa.OpLd, Rd: isa.R1, Rs1: isa.R2, Imm: 8},
		isa.Instr{Op: isa.OpFSt, Rs1: isa.R3, Rs2: isa.F4, Imm: -16},
		isa.Instr{Op: isa.OpHlt},
	)
	// With fusion off the expander's raw shape is visible:
	// ld expands to addi t0 + ld64; fst to addi t0 + st64.
	tr := NewTranslator(p)
	tr.SetFusion(false)
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatalf("Block: %v", err)
	}
	if tb.Ops[0].Kind != KAddI || tb.Ops[0].A0 != T0 || tb.Ops[0].Imm != 8 {
		t.Errorf("op0 = %+v", tb.Ops[0])
	}
	if tb.Ops[1].Kind != KLd64 || tb.Ops[1].A0 != GPR(isa.R1) || tb.Ops[1].A1 != T0 {
		t.Errorf("op1 = %+v", tb.Ops[1])
	}
	if tb.Ops[1].First {
		t.Error("second micro-op of ld marked First")
	}
	if tb.Ops[3].Kind != KSt64 || tb.Ops[3].A2 != FPR(isa.F4) {
		t.Errorf("op3 = %+v", tb.Ops[3])
	}

	// With fusion on (the default) each pair collapses into a single
	// base+displacement op that still names the address temp.
	tf := NewTranslator(p)
	ftb, err := tf.Block(isa.CodeBase)
	if err != nil {
		t.Fatalf("Block: %v", err)
	}
	if len(ftb.Ops) != 3 {
		t.Fatalf("fused ops = %d, want 3:\n%s", len(ftb.Ops), ftb.Dump())
	}
	ld := ftb.Ops[0]
	if ld.Kind != KLdD || ld.A0 != GPR(isa.R1) || ld.A1 != GPR(isa.R2) || ld.A2 != T0 || ld.Imm != 8 || !ld.First {
		t.Errorf("fused ld = %+v", ld)
	}
	st := ftb.Ops[1]
	if st.Kind != KStD || st.A0 != T0 || st.A1 != GPR(isa.R3) || st.A2 != FPR(isa.F4) || st.Imm != -16 || !st.First {
		t.Errorf("fused st = %+v", st)
	}
	if got := tf.Stats().FusedOps; got != 2 {
		t.Errorf("FusedOps = %d, want 2", got)
	}
}

func TestExpandPushPop(t *testing.T) {
	tr := NewTranslator(prog(
		isa.Instr{Op: isa.OpPush, Rs1: isa.R1},
		isa.Instr{Op: isa.OpPop, Rd: isa.R2},
		isa.Instr{Op: isa.OpFPush, Rs1: isa.F1},
		isa.Instr{Op: isa.OpFPop, Rd: isa.F2},
		isa.Instr{Op: isa.OpHlt},
	))
	// This test pins the expander's raw shape; push fusion is covered by
	// TestFusePush.
	tr.SetFusion(false)
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatalf("Block: %v", err)
	}
	if tb.Ops[0].Kind != KAddI || tb.Ops[0].A0 != SPReg || tb.Ops[0].Imm != -8 {
		t.Errorf("push op0 = %+v", tb.Ops[0])
	}
	if tb.Ops[1].Kind != KSt64 || tb.Ops[1].A1 != SPReg || tb.Ops[1].A2 != GPR(isa.R1) {
		t.Errorf("push op1 = %+v", tb.Ops[1])
	}
	if tb.Ops[2].Kind != KLd64 || tb.Ops[2].A0 != GPR(isa.R2) {
		t.Errorf("pop op0 = %+v", tb.Ops[2])
	}
	if tb.Ops[5].Kind != KSt64 || tb.Ops[5].A2 != FPR(isa.F1) {
		t.Errorf("fpush store = %+v", tb.Ops[5])
	}
	if tb.Ops[6].Kind != KLd64 || tb.Ops[6].A0 != FPR(isa.F2) {
		t.Errorf("fpop load = %+v", tb.Ops[6])
	}
}

func TestBlockEndsAtBranch(t *testing.T) {
	target := int64(isa.CodeBase + 3*isa.InstrSize)
	tr := NewTranslator(prog(
		isa.Instr{Op: isa.OpCmpI, Rs1: isa.R1, Imm: 0},
		isa.Instr{Op: isa.OpJne, Imm: target},
		isa.Instr{Op: isa.OpNop},
		isa.Instr{Op: isa.OpHlt},
	))
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatalf("Block: %v", err)
	}
	if tb.GuestLen != 2 {
		t.Fatalf("GuestLen = %d, want 2 (block must end at branch)", tb.GuestLen)
	}
	// cmpi+jne fuses, so the block ends in the immediate compare-and-branch.
	last := tb.Ops[len(tb.Ops)-1]
	if last.Kind != KCmpBrI || last.Cond != isa.OpJne || last.Imm2 != target {
		t.Errorf("last = %+v", last)
	}
	if last.GuestPC2+isa.InstrSize != isa.CodeBase+2*isa.InstrSize {
		t.Errorf("fallthrough = %#x", last.GuestPC2+isa.InstrSize)
	}
}

func TestBlockEndsAtSyscall(t *testing.T) {
	tr := NewTranslator(prog(
		isa.Instr{Op: isa.OpSyscall, Imm: int64(isa.SysExit)},
		isa.Instr{Op: isa.OpNop},
	))
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatalf("Block: %v", err)
	}
	if tb.GuestLen != 1 {
		t.Fatalf("GuestLen = %d, want 1", tb.GuestLen)
	}
	op := tb.Ops[len(tb.Ops)-1]
	if op.Kind != KSyscall || isa.Sys(op.Imm) != isa.SysExit {
		t.Errorf("syscall op = %+v", op)
	}
	if uint64(op.Imm2) != isa.CodeBase+isa.InstrSize {
		t.Errorf("continuation = %#x", uint64(op.Imm2))
	}
}

func TestMaxTBInstrs(t *testing.T) {
	code := make([]isa.Instr, MaxTBInstrs+10)
	for i := range code {
		code[i] = isa.Instr{Op: isa.OpNop}
	}
	tr := NewTranslator(prog(code...))
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatalf("Block: %v", err)
	}
	if tb.GuestLen != MaxTBInstrs {
		t.Errorf("GuestLen = %d, want %d", tb.GuestLen, MaxTBInstrs)
	}
	if tb.NextPC != isa.CodeBase+MaxTBInstrs*isa.InstrSize {
		t.Errorf("NextPC = %#x", tb.NextPC)
	}
}

func TestCacheAndFlush(t *testing.T) {
	tr := NewTranslator(prog(isa.Instr{Op: isa.OpHlt}))
	if _, err := tr.Block(isa.CodeBase); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Block(isa.CodeBase); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Translations != 1 || s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
	// Flush drops only the overlay: with no hooks armed, the clean block is
	// re-admitted from the base cache without retranslation.
	tr.Flush()
	if _, err := tr.Block(isa.CodeBase); err != nil {
		t.Fatal(err)
	}
	s = tr.Stats()
	if s.Translations != 1 || s.Flushes != 1 || s.BaseHits != 1 {
		t.Errorf("stats after flush = %+v", s)
	}
	if tr.Gen() != 1 {
		t.Errorf("gen = %d, want 1 (flush must still sever chains)", tr.Gen())
	}
}

// TestFlushWithHooksRetranslatesOnlyTargetedBlocks pins the tentpole
// guarantee: arming a hook and flushing costs retranslation only for the
// blocks the hook instruments; every clean block is served from the base.
func TestFlushWithHooksRetranslatesOnlyTargetedBlocks(t *testing.T) {
	// Two blocks: one with the targeted fadd, one without.
	target := int64(isa.CodeBase + 2*isa.InstrSize)
	tr := NewTranslator(prog(
		isa.Instr{Op: isa.OpFAdd, Rd: isa.F0, Rs1: isa.F1, Rs2: isa.F2},
		isa.Instr{Op: isa.OpJmp, Imm: target},
		isa.Instr{Op: isa.OpNop},
		isa.Instr{Op: isa.OpHlt},
	))
	pcs := []uint64{isa.CodeBase, isa.CodeBase + 2*isa.InstrSize}
	for _, pc := range pcs {
		if _, err := tr.Block(pc); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Stats().Translations; got != 2 {
		t.Fatalf("warm-up translations = %d, want 2", got)
	}

	tr.AddHook(func(ins isa.Instr, pc uint64) []Op {
		if ins.Op != isa.OpFAdd {
			return nil
		}
		return []Op{{Kind: KHelper, Helper: 7}}
	})
	tr.Flush()

	armed, err := tr.Block(pcs[0])
	if err != nil {
		t.Fatal(err)
	}
	clean, err := tr.Block(pcs[1])
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Translations != 3 {
		t.Errorf("translations = %d, want 3 (only the fadd block retranslates)", s.Translations)
	}
	if s.InstrumentedBlocks != 1 || s.OverlayBlocks != 2 {
		t.Errorf("overlay = %d instrumented / %d total, want 1/2", s.InstrumentedBlocks, s.OverlayBlocks)
	}
	found := false
	for _, op := range armed.Ops {
		if op.Kind == KHelper {
			found = true
		}
	}
	if !found {
		t.Errorf("armed block lost its helper:\n%s", armed.Dump())
	}
	for _, op := range clean.Ops {
		if op.Kind == KHelper {
			t.Errorf("clean block instrumented:\n%s", clean.Dump())
		}
	}
	// The instrumented block must not leak into the shared base.
	if n := tr.Base().Len(); n != 2 {
		t.Errorf("base blocks = %d, want 2", n)
	}
}

// TestSharedBaseCanonicalBlocks verifies that translators sharing a base
// converge on the same *TB for clean blocks and never see peers' hooks.
func TestSharedBaseCanonicalBlocks(t *testing.T) {
	p := prog(
		isa.Instr{Op: isa.OpMovI, Rd: isa.R1, Imm: 1},
		isa.Instr{Op: isa.OpHlt},
	)
	base := NewBaseCache(p)
	a := NewSharedTranslator(p, base)
	b := NewSharedTranslator(p, base)

	tba, err := a.Block(isa.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	tbb, err := b.Block(isa.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	if tba != tbb {
		t.Error("translators sharing a base returned distinct clean blocks")
	}
	if a.Stats().Translations != 1 || b.Stats().Translations != 0 {
		t.Errorf("translations a=%d b=%d, want 1/0", a.Stats().Translations, b.Stats().Translations)
	}

	// Arming b must give b a private instrumented block and leave a's view
	// (and the base) untouched.
	b.AddHook(func(ins isa.Instr, pc uint64) []Op {
		return []Op{{Kind: KHelper, Helper: 1}}
	})
	b.Flush()
	armed, err := b.Block(isa.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	if armed == tba {
		t.Error("instrumented block aliases the shared clean block")
	}
	again, err := a.Block(isa.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	if again != tba {
		t.Error("peer's arming changed a's clean block")
	}
	if bs := base.Stats(); bs.Blocks != 1 {
		t.Errorf("base blocks = %d, want 1", bs.Blocks)
	}
}

// TestSharedTranslatorProgramMismatch: a base built for another program must
// not serve wrong translations; the translator falls back to a private cache.
func TestSharedTranslatorProgramMismatch(t *testing.T) {
	p1 := prog(isa.Instr{Op: isa.OpHlt})
	p2 := prog(isa.Instr{Op: isa.OpNop}, isa.Instr{Op: isa.OpHlt})
	tr := NewSharedTranslator(p2, NewBaseCache(p1))
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	if tb.GuestLen != 2 {
		t.Errorf("GuestLen = %d, want 2 (translated against the wrong program?)", tb.GuestLen)
	}
	if tr.Base().Prog() != p2 {
		t.Error("mismatched base not replaced by a private one")
	}
}

// TestInstrumentationHook verifies the Fig. 3 mechanism: a helper-call
// micro-op is prepended only in front of targeted instructions.
func TestInstrumentationHook(t *testing.T) {
	tr := NewTranslator(prog(
		isa.Instr{Op: isa.OpMovI, Rd: isa.R1, Imm: 1},
		isa.Instr{Op: isa.OpFAdd, Rd: isa.F0, Rs1: isa.F1, Rs2: isa.F2},
		isa.Instr{Op: isa.OpHlt},
	))
	const helperID = 42
	tr.AddHook(func(ins isa.Instr, pc uint64) []Op {
		if ins.Op != isa.OpFAdd {
			return nil
		}
		return []Op{{Kind: KHelper, Helper: helperID}}
	})
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatalf("Block: %v", err)
	}
	var helpers []Op
	for _, op := range tb.Ops {
		if op.Kind == KHelper {
			helpers = append(helpers, op)
		}
	}
	if len(helpers) != 1 {
		t.Fatalf("helper ops = %d, want 1\n%s", len(helpers), tb.Dump())
	}
	h := helpers[0]
	if h.Helper != helperID || h.GuestOp != isa.OpFAdd {
		t.Errorf("helper op = %+v", h)
	}
	if h.GuestPC != isa.CodeBase+isa.InstrSize {
		t.Errorf("helper GuestPC = %#x", h.GuestPC)
	}
	// The helper must precede the fadd micro-op.
	for i, op := range tb.Ops {
		if op.Kind == KFAdd {
			if i == 0 || tb.Ops[i-1].Kind != KHelper {
				t.Errorf("helper not immediately before fadd:\n%s", tb.Dump())
			}
		}
	}
	if got := tr.Stats().HelperOps; got != 1 {
		t.Errorf("HelperOps = %d, want 1", got)
	}
}

func TestClearHooks(t *testing.T) {
	tr := NewTranslator(prog(isa.Instr{Op: isa.OpHlt}))
	tr.AddHook(func(ins isa.Instr, pc uint64) []Op {
		return []Op{{Kind: KHelper, Helper: 1}}
	})
	tr.ClearHooks()
	tr.Flush()
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range tb.Ops {
		if op.Kind == KHelper {
			t.Error("helper op present after ClearHooks")
		}
	}
}

func TestBlockAtBadPC(t *testing.T) {
	tr := NewTranslator(prog(isa.Instr{Op: isa.OpHlt}))
	if _, err := tr.Block(isa.CodeBase + 100*isa.InstrSize); err == nil {
		t.Error("expected error for out-of-code pc")
	}
}

func TestRunOffCodeEnd(t *testing.T) {
	// A block whose straight-line run hits the end of the code segment ends
	// there with NextPC past the end; the fault is raised at execution time.
	tr := NewTranslator(prog(isa.Instr{Op: isa.OpNop}, isa.Instr{Op: isa.OpNop}))
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatalf("Block: %v", err)
	}
	if tb.GuestLen != 2 {
		t.Errorf("GuestLen = %d", tb.GuestLen)
	}
	if tb.NextPC != isa.CodeBase+2*isa.InstrSize {
		t.Errorf("NextPC = %#x", tb.NextPC)
	}
}

func TestDumpAndStrings(t *testing.T) {
	tr := NewTranslator(prog(
		isa.Instr{Op: isa.OpLd, Rd: isa.R1, Rs1: isa.R2, Imm: 8},
		isa.Instr{Op: isa.OpCmp, Rs1: isa.R1, Rs2: isa.R2},
		isa.Instr{Op: isa.OpJe, Imm: int64(isa.CodeBase)},
	))
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	dump := tb.Dump()
	for _, want := range []string{"ldd r1, [r2+8]", "cmpbr(je) r1, r2"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
	if KFAdd.String() != "fadd" || KHelper.String() != "call_helper" {
		t.Error("kind names wrong")
	}
	// The unfused forms still print through the same paths.
	raw := NewTranslator(tr.prog)
	raw.SetFusion(false)
	rtb, err := raw.Block(isa.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	rdump := rtb.Dump()
	for _, want := range []string{"addi_i64 t0, r2, 8", "ld64 r1, [t0]", "setc flags, r1, r2", "brcond(je)"} {
		if !strings.Contains(rdump, want) {
			t.Errorf("raw dump missing %q:\n%s", want, rdump)
		}
	}
}

func TestOptimizerRewrites(t *testing.T) {
	tr := NewTranslator(prog(
		isa.Instr{Op: isa.OpLd, Rd: isa.R1, Rs1: isa.R2, Imm: 0},       // addi t0, r2, 0 -> mov
		isa.Instr{Op: isa.OpMulI, Rd: isa.R3, Rs1: isa.R4, Imm: 1},     // -> mov
		isa.Instr{Op: isa.OpMov, Rd: isa.R5, Rs1: isa.R5},              // -> nop
		isa.Instr{Op: isa.OpXor, Rd: isa.R6, Rs1: isa.R7, Rs2: isa.R7}, // -> movi 0
		isa.Instr{Op: isa.OpHlt},
	))
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	// Fusion runs before the peephole, so the zero-displacement load is
	// claimed by the fuser (KLdD), not rewritten to a mov.
	if tb.Ops[0].Kind != KLdD || tb.Ops[0].A1 != GPR(isa.R2) || tb.Ops[0].A2 != T0 || tb.Ops[0].Imm != 0 {
		t.Errorf("zero-disp load op = %+v", tb.Ops[0])
	}
	if tb.Ops[1].Kind != KMov {
		t.Errorf("muli-by-1 op = %+v", tb.Ops[1])
	}
	if tb.Ops[2].Kind != KNop {
		t.Errorf("self-mov op = %+v", tb.Ops[2])
	}
	if tb.Ops[3].Kind != KMovI || tb.Ops[3].Imm != 0 {
		t.Errorf("xor-self op = %+v", tb.Ops[3])
	}
	if got := tr.Stats().OptRewrites; got != 3 {
		t.Errorf("OptRewrites = %d, want 3", got)
	}
	if got := tr.Stats().FusedOps; got != 1 {
		t.Errorf("FusedOps = %d, want 1", got)
	}
	// First flags are preserved 1:1.
	firsts := 0
	for _, op := range tb.Ops {
		if op.First {
			firsts++
		}
	}
	if firsts != tb.GuestLen {
		t.Errorf("First flags = %d, want %d", firsts, tb.GuestLen)
	}
}

func TestOptimizerDisabled(t *testing.T) {
	tr := NewTranslator(prog(
		isa.Instr{Op: isa.OpLd, Rd: isa.R1, Rs1: isa.R2, Imm: 0},
		isa.Instr{Op: isa.OpHlt},
	))
	tr.SetOptimizer(false)
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Ops[0].Kind != KAddI {
		t.Errorf("op rewritten with optimizer off: %+v", tb.Ops[0])
	}
	if tr.Stats().OptRewrites != 0 {
		t.Error("rewrites counted with optimizer off")
	}
}

func TestExpandAllOpcodes(t *testing.T) {
	// Translate a program containing every translatable opcode once; this
	// pins the full guest->micro-op mapping.
	target := int64(isa.CodeBase)
	code := []isa.Instr{
		{Op: isa.OpNop},
		{Op: isa.OpMovI, Rd: isa.R1, Imm: 1},
		{Op: isa.OpMov, Rd: isa.R2, Rs1: isa.R1},
		{Op: isa.OpAdd, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2},
		{Op: isa.OpSub, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2},
		{Op: isa.OpMul, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2},
		{Op: isa.OpDiv, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2},
		{Op: isa.OpMod, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2},
		{Op: isa.OpAddI, Rd: isa.R3, Rs1: isa.R1, Imm: 4},
		{Op: isa.OpMulI, Rd: isa.R3, Rs1: isa.R1, Imm: 4},
		{Op: isa.OpAnd, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2},
		{Op: isa.OpOr, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2},
		{Op: isa.OpXor, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2},
		{Op: isa.OpShl, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2},
		{Op: isa.OpShr, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2},
		{Op: isa.OpNot, Rd: isa.R3, Rs1: isa.R1},
		{Op: isa.OpFMovI, Rd: isa.F1, Imm: 42},
		{Op: isa.OpFMov, Rd: isa.F2, Rs1: isa.F1},
		{Op: isa.OpFAdd, Rd: isa.F3, Rs1: isa.F1, Rs2: isa.F2},
		{Op: isa.OpFSub, Rd: isa.F3, Rs1: isa.F1, Rs2: isa.F2},
		{Op: isa.OpFMul, Rd: isa.F3, Rs1: isa.F1, Rs2: isa.F2},
		{Op: isa.OpFDiv, Rd: isa.F3, Rs1: isa.F1, Rs2: isa.F2},
		{Op: isa.OpFNeg, Rd: isa.F3, Rs1: isa.F1},
		{Op: isa.OpCvtIF, Rd: isa.F1, Rs1: isa.R1},
		{Op: isa.OpCvtFI, Rd: isa.R1, Rs1: isa.F1},
		{Op: isa.OpLd, Rd: isa.R1, Rs1: isa.R2, Imm: 8},
		{Op: isa.OpSt, Rs1: isa.R2, Rs2: isa.R1, Imm: 8},
		{Op: isa.OpLdB, Rd: isa.R1, Rs1: isa.R2, Imm: 8},
		{Op: isa.OpStB, Rs1: isa.R2, Rs2: isa.R1, Imm: 8},
		{Op: isa.OpFLd, Rd: isa.F1, Rs1: isa.R2, Imm: 8},
		{Op: isa.OpFSt, Rs1: isa.R2, Rs2: isa.F1, Imm: 8},
		{Op: isa.OpCmp, Rs1: isa.R1, Rs2: isa.R2},
		{Op: isa.OpCmpI, Rs1: isa.R1, Imm: 3},
		{Op: isa.OpFCmp, Rs1: isa.F1, Rs2: isa.F2},
		{Op: isa.OpPush, Rs1: isa.R1},
		{Op: isa.OpPop, Rd: isa.R1},
		{Op: isa.OpFPush, Rs1: isa.F1},
		{Op: isa.OpFPop, Rd: isa.F1},
		{Op: isa.OpSyscall, Imm: 1},
		{Op: isa.OpJe, Imm: target},
		{Op: isa.OpJne, Imm: target},
		{Op: isa.OpJl, Imm: target},
		{Op: isa.OpJle, Imm: target},
		{Op: isa.OpJg, Imm: target},
		{Op: isa.OpJge, Imm: target},
		{Op: isa.OpJmp, Imm: target},
		{Op: isa.OpCall, Imm: target},
		{Op: isa.OpRet},
		{Op: isa.OpHlt},
	}
	tr := NewTranslator(prog(code...))
	tr.SetOptimizer(false)
	covered := 0
	for pc := isa.CodeBase; pc < isa.CodeBase+uint64(len(code))*isa.InstrSize; {
		tb, err := tr.Block(pc)
		if err != nil {
			t.Fatalf("block at %#x: %v", pc, err)
		}
		if len(tb.Ops) == 0 && tb.GuestLen == 0 {
			t.Fatalf("empty block at %#x", pc)
		}
		covered += tb.GuestLen
		pc += uint64(tb.GuestLen) * isa.InstrSize
	}
	if covered != len(code) {
		t.Errorf("covered %d of %d instructions", covered, len(code))
	}
	// Dump every block's string form for the String() paths.
	for _, op := range []Op{
		{Kind: KSetcI, A1: GPR(isa.R1), Imm: 3},
		{Kind: KCall, Imm: 10, Imm2: 20},
		{Kind: KSyscall, Imm: 1, Imm2: 2},
		{Kind: KRet}, {Kind: KHlt}, {Kind: KNop},
		{Kind: KCvtIF, A0: FPR(isa.F1), A1: GPR(isa.R1)},
		{Kind: KLd8, A0: GPR(isa.R1), A1: T0},
		{Kind: KSt8, A1: T0, A2: GPR(isa.R1)},
		{Kind: KFSetc, A1: FPR(isa.F1), A2: FPR(isa.F2)},
		{Kind: KFAdd, A0: FPR(isa.F1), A1: FPR(isa.F2), A2: FPR(isa.F3)},
	} {
		if op.String() == "" {
			t.Errorf("empty string for %v", op.Kind)
		}
	}
	if Kind(200).String() == "" || MReg(200).String() == "" {
		t.Error("unknown kind/mreg names empty")
	}
}

// TestRegsFootprint pins Op.Regs and TB.Regs, which the interpreter trusts: a
// register missing from an op's footprint is taint silently not propagated.
// Each instruction is translated alone, fused and unfused, and the footprints
// of its micro-ops are compared with the registers whose taint it is known to
// read or write — an access's address is not among them, T0 never is, and a
// push's fused store, whose temporary is SP, keeps SP — and the block's with
// their union.
func TestRegsFootprint(t *testing.T) {
	set := func(regs ...MReg) uint64 {
		var s uint64
		for _, r := range regs {
			s |= 1 << r
		}
		return s
	}
	r1, r2, r3, f1, f2, f3 := GPR(isa.R1), GPR(isa.R2), GPR(isa.R3), FPR(isa.F1), FPR(isa.F2), FPR(isa.F3)
	cases := []struct {
		ins     isa.Instr
		fused   []uint64 // footprint of each micro-op with fusion on
		unfused []uint64 // nil: the same
	}{
		{ins: isa.Instr{Op: isa.OpMovI, Rd: isa.R1, Imm: 1}, fused: []uint64{set(r1)}},
		{ins: isa.Instr{Op: isa.OpFMovI, Rd: isa.F1}, fused: []uint64{set(f1)}},
		{ins: isa.Instr{Op: isa.OpMov, Rd: isa.R2, Rs1: isa.R1}, fused: []uint64{set(r1, r2)}},
		{ins: isa.Instr{Op: isa.OpAdd, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2}, fused: []uint64{set(r1, r2, r3)}},
		{ins: isa.Instr{Op: isa.OpShl, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2}, fused: []uint64{set(r1, r2, r3)}},
		{ins: isa.Instr{Op: isa.OpMod, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2}, fused: []uint64{set(r1, r2, r3)}},
		{ins: isa.Instr{Op: isa.OpAddI, Rd: isa.R3, Rs1: isa.R1, Imm: 4}, fused: []uint64{set(r1, r3)}},
		{ins: isa.Instr{Op: isa.OpNot, Rd: isa.R3, Rs1: isa.R1}, fused: []uint64{set(r1, r3)}},
		{ins: isa.Instr{Op: isa.OpFDiv, Rd: isa.F3, Rs1: isa.F1, Rs2: isa.F2}, fused: []uint64{set(f1, f2, f3)}},
		{ins: isa.Instr{Op: isa.OpFNeg, Rd: isa.F3, Rs1: isa.F1}, fused: []uint64{set(f1, f3)}},
		{ins: isa.Instr{Op: isa.OpCvtIF, Rd: isa.F1, Rs1: isa.R1}, fused: []uint64{set(f1, r1)}},
		{ins: isa.Instr{Op: isa.OpCvtFI, Rd: isa.R1, Rs1: isa.F1}, fused: []uint64{set(f1, r1)}},
		{ins: isa.Instr{Op: isa.OpLd, Rd: isa.R1, Rs1: isa.R2, Imm: 8},
			fused: []uint64{set(r1)}, unfused: []uint64{0, set(r1)}},
		// Zero displacement: unfused, the peephole turns the addressing
		// into a KMov to T0.
		{ins: isa.Instr{Op: isa.OpLd, Rd: isa.R2, Rs1: isa.R2},
			fused: []uint64{set(r2)}, unfused: []uint64{0, set(r2)}},
		{ins: isa.Instr{Op: isa.OpFSt, Rs1: isa.R2, Rs2: isa.F1, Imm: 8},
			fused: []uint64{set(f1)}, unfused: []uint64{0, set(f1)}},
		{ins: isa.Instr{Op: isa.OpSt, Rs1: isa.R2, Rs2: isa.R1},
			fused: []uint64{set(r1)}, unfused: []uint64{0, set(r1)}},
		{ins: isa.Instr{Op: isa.OpLdB, Rd: isa.R1, Rs1: isa.R2, Imm: 8}, fused: []uint64{0, set(r1)}},
		{ins: isa.Instr{Op: isa.OpStB, Rs1: isa.R2, Rs2: isa.R1, Imm: 8}, fused: []uint64{0, set(r1)}},
		{ins: isa.Instr{Op: isa.OpPush, Rs1: isa.R1},
			fused: []uint64{set(SPReg, r1)}, unfused: []uint64{set(SPReg), set(r1)}},
		{ins: isa.Instr{Op: isa.OpFPush, Rs1: isa.F1},
			fused: []uint64{set(SPReg, f1)}, unfused: []uint64{set(SPReg), set(f1)}},
		{ins: isa.Instr{Op: isa.OpPop, Rd: isa.R1}, fused: []uint64{set(r1), set(SPReg)}},
		{ins: isa.Instr{Op: isa.OpCmp, Rs1: isa.R1, Rs2: isa.R2}, fused: []uint64{set(r1, r2, FlagsReg)}},
		{ins: isa.Instr{Op: isa.OpCmpI, Rs1: isa.R1, Imm: 3}, fused: []uint64{set(r1, FlagsReg)}},
		{ins: isa.Instr{Op: isa.OpFCmp, Rs1: isa.F1, Rs2: isa.F2}, fused: []uint64{set(f1, f2, FlagsReg)}},
		{ins: isa.Instr{Op: isa.OpJg, Imm: int64(isa.CodeBase)}, fused: []uint64{set(FlagsReg)}},
		{ins: isa.Instr{Op: isa.OpCall, Imm: int64(isa.CodeBase)}, fused: []uint64{0}},
		{ins: isa.Instr{Op: isa.OpSyscall, Imm: 1}, fused: []uint64{0}},
	}
	for _, tc := range cases {
		for _, fusion := range []bool{true, false} {
			want := tc.fused
			if !fusion && tc.unfused != nil {
				want = tc.unfused
			}
			tr := NewTranslator(prog(tc.ins, isa.Instr{Op: isa.OpHlt}))
			tr.SetFusion(fusion)
			tb, err := tr.Block(isa.CodeBase)
			if err != nil {
				t.Fatal(err)
			}
			var all uint64
			for i, w := range want {
				all |= w
				if i >= len(tb.Ops) || tb.Ops[i].Regs != w {
					t.Errorf("%v (fusion %v): op %d footprint wrong, want %#x\n%s", tc.ins, fusion, i, w, tb.Dump())
				}
			}
			if tb.Regs != all {
				t.Errorf("%v (fusion %v): block footprint %#x, want %#x", tc.ins, fusion, tb.Regs, all)
			}
		}
	}

	// A compare fused with its branch keeps the compare's footprint, and a
	// hook's helper op has none.
	tr := NewTranslator(prog(
		isa.Instr{Op: isa.OpCmpI, Rs1: isa.R1, Imm: 3},
		isa.Instr{Op: isa.OpJg, Imm: int64(isa.CodeBase)},
	))
	tr.AddHook(func(isa.Instr, uint64) []Op { return []Op{{Kind: KHelper}} })
	tb, err := tr.Block(isa.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range tb.Ops {
		want := map[Kind]uint64{KHelper: 0, KCmpBrI: set(r1, FlagsReg), KSetcI: set(r1, FlagsReg), KBrCond: set(FlagsReg)}[op.Kind]
		if op.Regs != want {
			t.Errorf("%s: footprint %#x, want %#x", op, op.Regs, want)
		}
	}
}
