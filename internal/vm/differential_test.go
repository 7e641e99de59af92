package vm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"chaser/internal/isa"
	"chaser/internal/taint"
	"chaser/internal/tcg"
)

// refState is a Go-side reference model of the guest machine: the
// differential tests generate random programs, execute them both through the
// TCG engine and through this direct evaluator, and require bit-identical
// state at the end. It models values and taint. The taint side is computed
// straight from taint/rules.go, one guest instruction at a time, and shares
// nothing with the interpreter loops or the Shadow: it is the oracle the
// loops are compared with now that each is the other's only twin.
type refState struct {
	gpr   [16]uint64
	fpr   [16]float64
	flags int64
	mem   map[uint64]uint8

	gprMask, fprMask [16]uint64
	flagsMask        uint64
	memMask          map[uint64]uint8

	instrs        uint64
	reads, writes uint64
	events        []refEvent
}

// refEvent is what the oracle predicts of one tainted access.
type refEvent struct {
	EIP, VAddr, Mask, InstrNum uint64
	Write                      bool
}

func newRefState() *refState {
	return &refState{mem: make(map[uint64]uint8), memMask: make(map[uint64]uint8)}
}

func (r *refState) taintedBytes() int64 {
	var n int64
	for _, m := range r.memMask {
		if m != 0 {
			n++
		}
	}
	return n
}

func (r *refState) load(addr uint64, size int) (v, mask uint64) {
	for i := 0; i < size; i++ {
		v |= uint64(r.mem[addr+uint64(i)]) << (8 * i)
		mask |= uint64(r.memMask[addr+uint64(i)]) << (8 * i)
	}
	return v, mask
}

func (r *refState) store(addr uint64, size int, v, mask uint64) {
	for i := 0; i < size; i++ {
		r.mem[addr+uint64(i)] = uint8(v >> (8 * i))
		r.memMask[addr+uint64(i)] = uint8(mask >> (8 * i))
	}
}

func (r *refState) access(pc, addr, mask uint64, write bool) {
	if mask == 0 {
		return
	}
	if write {
		r.writes++
	} else {
		r.reads++
	}
	r.events = append(r.events, refEvent{EIP: pc, VAddr: addr, Mask: mask, InstrNum: r.instrs, Write: write})
}

// exec retires one instruction at pc. Branches are the caller's business.
func (r *refState) exec(ins isa.Instr, pc uint64) {
	r.instrs++
	a, b := r.gpr[ins.Rs1], r.gpr[ins.Rs2]
	ma, mb := r.gprMask[ins.Rs1], r.gprMask[ins.Rs2]
	fa, fb := r.fprMask[ins.Rs1], r.fprMask[ins.Rs2]
	bin := func(k tcg.Kind) uint64 { return taint.BinaryMask(k, ma, mb, b) }
	fbin := func(k tcg.Kind) uint64 { return taint.BinaryMask(k, fa, fb, 0) }
	switch ins.Op {
	case isa.OpMovI:
		r.gpr[ins.Rd], r.gprMask[ins.Rd] = uint64(ins.Imm), 0
	case isa.OpMov:
		r.gpr[ins.Rd], r.gprMask[ins.Rd] = a, taint.UnaryMask(tcg.KMov, ma)
	case isa.OpAdd:
		r.gpr[ins.Rd], r.gprMask[ins.Rd] = a+b, bin(tcg.KAdd)
	case isa.OpSub:
		r.gpr[ins.Rd], r.gprMask[ins.Rd] = a-b, bin(tcg.KSub)
	case isa.OpMul:
		r.gpr[ins.Rd], r.gprMask[ins.Rd] = a*b, bin(tcg.KMul)
	case isa.OpAddI:
		r.gpr[ins.Rd] = a + uint64(ins.Imm)
		// The translator's peephole turns the adds and multiplies that are
		// copies into copies, and a copy keeps the mask exact.
		if ins.Imm == 0 {
			r.gprMask[ins.Rd] = ma
		} else {
			r.gprMask[ins.Rd] = taint.ImmBinaryMask(tcg.KAddI, ma, ins.Imm)
		}
	case isa.OpMulI:
		r.gpr[ins.Rd] = a * uint64(ins.Imm)
		if ins.Imm == 1 {
			r.gprMask[ins.Rd] = ma
		} else {
			r.gprMask[ins.Rd] = taint.ImmBinaryMask(tcg.KMulI, ma, ins.Imm)
		}
	case isa.OpAnd:
		r.gpr[ins.Rd], r.gprMask[ins.Rd] = a&b, bin(tcg.KAnd)
	case isa.OpOr:
		r.gpr[ins.Rd], r.gprMask[ins.Rd] = a|b, bin(tcg.KOr)
	case isa.OpXor:
		r.gpr[ins.Rd], r.gprMask[ins.Rd] = a^b, bin(tcg.KXor)
		if ins.Rs1 == ins.Rs2 {
			r.gprMask[ins.Rd] = 0 // the peephole's constant zero
		}
	case isa.OpShl:
		r.gprMask[ins.Rd] = bin(tcg.KShl)
		if b >= 64 {
			r.gpr[ins.Rd] = 0
		} else {
			r.gpr[ins.Rd] = a << b
		}
	case isa.OpShr:
		r.gprMask[ins.Rd] = bin(tcg.KShr)
		if b >= 64 {
			r.gpr[ins.Rd] = 0
		} else {
			r.gpr[ins.Rd] = a >> b
		}
	case isa.OpNot:
		r.gpr[ins.Rd], r.gprMask[ins.Rd] = ^a, taint.UnaryMask(tcg.KNot, ma)
	case isa.OpFMovI:
		r.fpr[ins.Rd], r.fprMask[ins.Rd] = math.Float64frombits(uint64(ins.Imm)), 0
	case isa.OpFMov:
		r.fpr[ins.Rd], r.fprMask[ins.Rd] = r.fpr[ins.Rs1], taint.UnaryMask(tcg.KMov, fa)
	case isa.OpFAdd:
		r.fpr[ins.Rd], r.fprMask[ins.Rd] = r.fpr[ins.Rs1]+r.fpr[ins.Rs2], fbin(tcg.KFAdd)
	case isa.OpFSub:
		r.fpr[ins.Rd], r.fprMask[ins.Rd] = r.fpr[ins.Rs1]-r.fpr[ins.Rs2], fbin(tcg.KFSub)
	case isa.OpFMul:
		r.fpr[ins.Rd], r.fprMask[ins.Rd] = r.fpr[ins.Rs1]*r.fpr[ins.Rs2], fbin(tcg.KFMul)
	case isa.OpFDiv:
		r.fpr[ins.Rd], r.fprMask[ins.Rd] = r.fpr[ins.Rs1]/r.fpr[ins.Rs2], fbin(tcg.KFDiv)
	case isa.OpFNeg:
		r.fpr[ins.Rd], r.fprMask[ins.Rd] = -r.fpr[ins.Rs1], taint.UnaryMask(tcg.KFNeg, fa)
	case isa.OpCvtIF:
		r.fpr[ins.Rd], r.fprMask[ins.Rd] = float64(int64(a)), taint.UnaryMask(tcg.KCvtIF, ma)

	case isa.OpLd, isa.OpLdB, isa.OpFLd, isa.OpSt, isa.OpStB, isa.OpFSt:
		// Pointer taint is not propagated: the access takes none of the
		// base register's taint, and neither does the address temporary,
		// whose mask the model leaves at zero.
		addr := a + uint64(ins.Imm)
		switch ins.Op {
		case isa.OpLd:
			r.gpr[ins.Rd], r.gprMask[ins.Rd] = r.load(addr, 8)
			r.access(pc, addr, r.gprMask[ins.Rd], false)
		case isa.OpLdB:
			r.gpr[ins.Rd], r.gprMask[ins.Rd] = r.load(addr, 1)
			r.access(pc, addr, r.gprMask[ins.Rd], false)
		case isa.OpFLd:
			v, mask := r.load(addr, 8)
			r.fpr[ins.Rd], r.fprMask[ins.Rd] = math.Float64frombits(v), mask
			r.access(pc, addr, mask, false)
		case isa.OpSt:
			r.store(addr, 8, b, mb)
			r.access(pc, addr, mb, true)
		case isa.OpStB:
			r.store(addr, 1, b, mb&0xff)
			r.access(pc, addr, mb&0xff, true)
		case isa.OpFSt:
			r.store(addr, 8, math.Float64bits(r.fpr[ins.Rs2]), fb)
			r.access(pc, addr, fb, true)
		}

	case isa.OpCmpI:
		r.flagsMask = taint.CompareMask(ma, 0)
		switch {
		case int64(a) < ins.Imm:
			r.flags = -1
		case int64(a) > ins.Imm:
			r.flags = 1
		default:
			r.flags = 0
		}
	}
}

// Registers the generated programs set aside: the loop counter and the base
// of the memory window every load and store goes through.
const (
	diffCounter = isa.R12
	diffBase    = isa.R13
)

// The window is 256 bytes of stack astride a page boundary, so that some
// 64-bit accesses straddle it.
const (
	diffWindow     = isa.StackTop - 2*PageSize - 128
	diffWindowSize = 256
)

// genStraightLine builds a random block of arithmetic, loads and stores over
// pre-seeded registers, avoiding traps (div/mod excluded; cvtfi excluded to
// dodge NaN/range clamping differences by construction — cvtfi is covered by
// dedicated unit tests). Memory is reached through diffBase only, which no
// instruction writes.
func genStraightLine(rng *rand.Rand, n int) []isa.Instr {
	intOps := []isa.Op{
		isa.OpMovI, isa.OpMov, isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAddI,
		isa.OpMulI, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpNot,
	}
	floatOps := []isa.Op{
		isa.OpFMovI, isa.OpFMov, isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv,
		isa.OpFNeg, isa.OpCvtIF,
	}
	memOps := []isa.Op{isa.OpLd, isa.OpSt, isa.OpLdB, isa.OpStB, isa.OpFLd, isa.OpFSt}
	code := make([]isa.Instr, 0, n+1)
	reg := func() isa.Reg { return isa.Reg(rng.Intn(12)) } // avoid counter, base, FP, SP
	for i := 0; i < n; i++ {
		var op isa.Op
		switch rng.Intn(5) {
		case 0, 1:
			op = intOps[rng.Intn(len(intOps))]
		case 2, 3:
			op = floatOps[rng.Intn(len(floatOps))]
		default:
			op = memOps[rng.Intn(len(memOps))]
		}
		ins := isa.Instr{Op: op, Rd: reg(), Rs1: reg(), Rs2: reg()}
		switch op {
		case isa.OpMovI, isa.OpAddI, isa.OpMulI:
			ins.Imm = rng.Int63() - rng.Int63()
		case isa.OpFMovI:
			ins.Imm = int64(math.Float64bits(rng.NormFloat64() * 100))
		case isa.OpLd, isa.OpSt, isa.OpFLd, isa.OpFSt:
			ins.Rs1, ins.Imm = diffBase, int64(rng.Intn(diffWindowSize-7))
		case isa.OpLdB, isa.OpStB:
			ins.Rs1, ins.Imm = diffBase, int64(rng.Intn(diffWindowSize))
		}
		code = append(code, ins)
	}
	code = append(code, isa.Instr{Op: isa.OpHlt})
	return code
}

// seedPair gives the machine and the model the same random registers and
// window contents; with taint it also taints a random few of them — now and
// then the base register too, whose taint reaches the address temporary and
// nothing else.
func seedPair(rng *rand.Rand, m *Machine, ref *refState, withTaint bool) {
	for r := 0; r < 12; r++ {
		v, f := rng.Uint64(), rng.NormFloat64()*10
		m.SetGPR(isa.Reg(r), v)
		m.SetFPR(isa.Reg(r), f)
		ref.gpr[r], ref.fpr[r] = v, f
	}
	m.SetGPR(diffBase, diffWindow)
	ref.gpr[diffBase] = diffWindow
	ref.gpr[isa.SP] = m.GPR(isa.SP)
	window := make([]byte, diffWindowSize)
	rng.Read(window)
	if err := m.Mem.WriteBytes(diffWindow, window); err != nil {
		panic(err)
	}
	for i, b := range window {
		ref.mem[diffWindow+uint64(i)] = b
	}
	if !withTaint {
		return
	}
	for r := 0; r < 12; r++ {
		if rng.Intn(4) == 0 {
			ref.gprMask[r] = rng.Uint64()
			m.Shadow.SetRegMask(tcg.GPR(isa.Reg(r)), ref.gprMask[r])
		}
		if rng.Intn(4) == 0 {
			ref.fprMask[r] = rng.Uint64()
			m.Shadow.SetRegMask(tcg.FPR(isa.Reg(r)), ref.fprMask[r])
		}
	}
	if rng.Intn(8) == 0 {
		ref.gprMask[diffBase] = 1 << rng.Intn(64)
		m.Shadow.SetRegMask(tcg.GPR(diffBase), ref.gprMask[diffBase])
	}
	for k := rng.Intn(12); k > 0; k-- {
		addr, mask := diffWindow+uint64(rng.Intn(diffWindowSize)), uint8(1+rng.Intn(255))
		ref.memMask[addr] = mask
		m.Shadow.SetMemMask8(addr, mask)
	}
}

// compareValues checks the machine's registers and window against the model.
func compareValues(t *testing.T, m *Machine, ref *refState, prog *isa.Program) {
	t.Helper()
	for r := 0; r < 16; r++ {
		if got := m.GPR(isa.Reg(r)); got != ref.gpr[r] {
			t.Fatalf("r%d = %#x, ref %#x\n%s", r, got, ref.gpr[r], prog.Disassemble())
		}
		got, want := math.Float64bits(m.FPR(isa.Reg(r))), math.Float64bits(ref.fpr[r])
		if got != want {
			t.Fatalf("f%d = %#x, ref %#x\n%s", r, got, want, prog.Disassemble())
		}
	}
	window, err := m.Mem.ReadBytes(diffWindow, diffWindowSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range window {
		if want := ref.mem[diffWindow+uint64(i)]; b != want {
			t.Fatalf("window byte %d = %#x, ref %#x\n%s", i, b, want, prog.Disassemble())
		}
	}
}

func TestEngineMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		code := genStraightLine(rng, 40)
		prog := &isa.Program{Name: "diff", Entry: isa.CodeBase, Code: code}

		m := New(prog, Config{})
		ref := newRefState()
		seedPair(rng, m, ref, false)
		for i, ins := range code[:len(code)-1] {
			ref.exec(ins, isa.CodeBase+uint64(i)*isa.InstrSize)
		}
		term := m.Run()
		if term.Reason != ReasonExited {
			t.Fatalf("trial %d: %v\n%s", trial, term, prog.Disassemble())
		}
		compareValues(t, m, ref, prog)
	}
}

// TestEngineMatchesReferenceWithTaint re-runs the differential check with
// taint tracking enabled: taint must never alter architectural state.
func TestEngineMatchesReferenceWithTaint(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 50; trial++ {
		code := genStraightLine(rng, 40)
		prog := &isa.Program{Name: "diff", Entry: isa.CodeBase, Code: code}

		m := New(prog, Config{})
		m.TaintEnabled = true
		ref := newRefState()
		seedPair(rng, m, ref, true)
		for i, ins := range code[:len(code)-1] {
			ref.exec(ins, isa.CodeBase+uint64(i)*isa.InstrSize)
		}
		if term := m.Run(); term.Reason != ReasonExited {
			t.Fatalf("trial %d: %v", trial, term)
		}
		compareValues(t, m, ref, prog)
	}
}

// taintCase is one program of TestTaintMatchesReferenceModel: a random body
// run iters times under a budget, with an optional taint seed dropped in by a
// helper in front of the body's at-th instruction on its fire-th execution.
type taintCase struct {
	body        int
	iters       int
	seedAtEntry bool
	helperAt    int // -1: no helper
	helperFire  int
	budget      uint64 // 0: unbounded
	sampleIv    uint64
	// scrubFirst makes the body begin by overwriting every register and
	// window word with constants, so that all taint decays there.
	scrubFirst bool
}

// loopProgram wraps body (without its hlt) in a counted loop:
//
//	movi counter, iters; body...; addi counter, counter, -1; cmpi counter, 0; jg body; hlt
func loopProgram(body []isa.Instr, iters int) []isa.Instr {
	code := []isa.Instr{{Op: isa.OpMovI, Rd: diffCounter, Imm: int64(iters)}}
	code = append(code, body...)
	return append(code,
		isa.Instr{Op: isa.OpAddI, Rd: diffCounter, Rs1: diffCounter, Imm: -1},
		isa.Instr{Op: isa.OpCmpI, Rs1: diffCounter, Imm: 0},
		isa.Instr{Op: isa.OpJg, Imm: int64(isa.CodeBase + isa.InstrSize)},
		isa.Instr{Op: isa.OpHlt},
	)
}

// scrub returns instructions that overwrite everything seedPair may have
// tainted with constants.
func scrub() []isa.Instr {
	var code []isa.Instr
	for r := 0; r < 12; r++ {
		code = append(code,
			isa.Instr{Op: isa.OpMovI, Rd: isa.Reg(r), Imm: int64(r)},
			isa.Instr{Op: isa.OpFMovI, Rd: isa.Reg(r), Imm: int64(math.Float64bits(float64(r)))})
	}
	for off := 0; off < diffWindowSize; off += 8 {
		code = append(code, isa.Instr{Op: isa.OpSt, Rs1: diffBase, Rs2: isa.R0, Imm: int64(off)})
	}
	// The last store's address temporary and the flags are scrubbed by the
	// loop's own tail (an untainted base, an untainted counter).
	return code
}

// taintOutcome is everything the oracle predicts and the machine is asked.
type taintOutcome struct {
	Reason       Reason
	PC           uint64
	Instructions uint64
	RegMasks     [tcg.NumMRegs]uint64
	MemMasks     [diffWindowSize]uint8
	Reads        uint64
	Writes       uint64
	Events       []refEvent
	Samples      []int64
}

// runTaintCase executes one case on the machine (default loops, or
// NoFastPath) and on the oracle, requires the same values and the same
// outcome, and returns the outcome and the machine's counters.
func runTaintCase(t *testing.T, rng *rand.Rand, tc taintCase, noFast bool) (got taintOutcome, c Counters) {
	t.Helper()
	body := genStraightLine(rng, tc.body)
	body = body[:len(body)-1]
	if tc.scrubFirst {
		body = append(scrub(), body...)
	}
	code := loopProgram(body, tc.iters)
	prog := &isa.Program{Name: "diff", Entry: isa.CodeBase, Code: code}

	m := New(prog, Config{NoFastPath: noFast, MaxInstructions: tc.budget, SampleInterval: tc.sampleIv})
	m.TaintEnabled = true
	ref := newRefState()
	seedPair(rng, m, ref, tc.seedAtEntry)
	var want taintOutcome

	// The helper's seed: one register and one window word.
	seedReg, seedMask := isa.Reg(rng.Intn(12)), rng.Uint64()|1
	seedAddr := diffWindow + uint64(rng.Intn(diffWindowSize-7))
	if tc.helperAt >= 0 {
		fires := 0
		id := m.RegisterHelper(func(mm *Machine, _ *tcg.Op) {
			if fires++; fires == tc.helperFire {
				mm.Shadow.SetRegMask(tcg.GPR(seedReg), seedMask)
				mm.Shadow.SetMemMask64(seedAddr, seedMask)
			}
		})
		at := isa.CodeBase + uint64(1+tc.helperAt)*isa.InstrSize
		m.Trans.AddHook(func(_ isa.Instr, pc uint64) []tcg.Op {
			if pc == at {
				return []tcg.Op{{Kind: tcg.KHelper, Helper: id}}
			}
			return nil
		})
	}
	m.Hooks.TaintedMemRead = func(ev *MemTaintEvent) {
		got.Events = append(got.Events, refEvent{ev.EIP, ev.VAddr, ev.Mask, ev.InstrNum, ev.Write})
	}
	m.Hooks.TaintedMemWrite = m.Hooks.TaintedMemRead
	m.Hooks.Sample = func(_ uint64, tainted int64) { got.Samples = append(got.Samples, tainted) }

	// The oracle: one instruction at a time, in the engine's order — the
	// helper in front of the instruction, then its retirement (count, budget,
	// sample), then its effect.
	budget, sampleIv := tc.budget, tc.sampleIv
	if budget == 0 {
		budget = DefaultMaxInstructions
	}
	want.Reason = ReasonExited
	fires := 0
	for idx := 0; ; {
		ins, pc := code[idx], isa.CodeBase+uint64(idx)*isa.InstrSize
		if idx == 1+tc.helperAt && tc.helperAt >= 0 {
			if fires++; fires == tc.helperFire {
				ref.gprMask[seedReg] = seedMask
				v, _ := ref.load(seedAddr, 8)
				ref.store(seedAddr, 8, v, seedMask)
			}
		}
		if ref.instrs+1 > budget {
			ref.instrs++
			want.Reason, want.PC = ReasonBudget, pc
			break
		}
		if (ref.instrs+1)%sampleIv == 0 {
			want.Samples = append(want.Samples, ref.taintedBytes())
		}
		if ins.Op == isa.OpHlt {
			ref.instrs++
			want.PC = pc
			break
		}
		if ins.Op == isa.OpJg {
			ref.instrs++
			if idx++; ref.flags > 0 {
				idx = 1
			}
			continue
		}
		ref.exec(ins, pc)
		idx++
	}

	term := m.Run()
	c = m.Counters()
	got.Reason, got.PC, got.Instructions = term.Reason, term.PC, c.Instructions
	got.Reads, got.Writes = c.TaintedMemReads, c.TaintedMemWrites
	for r := tcg.MReg(0); r < tcg.NumMRegs; r++ {
		got.RegMasks[r] = m.Shadow.RegMask(r)
	}
	copy(got.MemMasks[:], m.Shadow.MemRangeMasks(diffWindow, diffWindowSize))

	want.Instructions, want.Reads, want.Writes, want.Events = ref.instrs, ref.reads, ref.writes, ref.events
	for r := 0; r < 16; r++ {
		want.RegMasks[tcg.GPR(isa.Reg(r))] = ref.gprMask[r]
		want.RegMasks[tcg.FPR(isa.Reg(r))] = ref.fprMask[r]
	}
	want.RegMasks[tcg.FlagsReg] = ref.flagsMask
	for i := range want.MemMasks {
		want.MemMasks[i] = ref.memMask[diffWindow+uint64(i)]
	}

	compareValues(t, m, ref, prog)
	if m.Flags() != ref.flags {
		t.Fatalf("flags = %d, ref %d", m.Flags(), ref.flags)
	}
	if n := int64(len(m.Shadow.TaintedAddrs(0))); n != ref.taintedBytes() || n != m.Shadow.TaintedBytes() {
		t.Fatalf("%d tainted addresses, TaintedBytes %d, ref %d", n, m.Shadow.TaintedBytes(), ref.taintedBytes())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("taint diverged from the rules (noFast=%v, case %+v)\n got: %+v\nwant: %+v\n%s", noFast, tc, got, want, prog.Disassemble())
	}
	return got, c
}

// TestTaintMatchesReferenceModel is the interpreter loops' independent
// oracle: shadow registers, shadow memory, the tainted-access counters and the
// sequence of (EIP, VAddr, Mask, InstrNum, Write) events of random looping
// programs with random seeded taint must be what taint/rules.go says,
// instruction by instruction — on the default pair of loops and under
// NoFastPath. The named cases pin the transitions between the loops.
func TestTaintMatchesReferenceModel(t *testing.T) {
	if diffWindow/PageSize == (diffWindow+diffWindowSize-1)/PageSize {
		t.Fatal("the window lies inside one page: no access straddles")
	}
	// both runs a case on the default loops and under NoFastPath, each
	// against the oracle, and returns the default run's counters and outcome.
	both := func(t *testing.T, seed int64, tc taintCase) (Counters, taintOutcome) {
		t.Helper()
		out, def := runTaintCase(t, rand.New(rand.NewSource(seed)), tc, false)
		_, nofast := runTaintCase(t, rand.New(rand.NewSource(seed)), tc, true)
		if nofast.FastPathTBs != 0 {
			t.Fatalf("NoFastPath ran %d blocks on the fast loop", nofast.FastPathTBs)
		}
		nofast.FastPathTBs = def.FastPathTBs
		if def != nofast {
			t.Fatalf("counters differ beyond FastPathTBs (case %+v)\ndefault:    %+v\nNoFastPath: %+v", tc, def, nofast)
		}
		return def, out
	}

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2020))
		for trial := 0; trial < 200; trial++ {
			tc := taintCase{
				body: 20 + rng.Intn(90), iters: 1 + rng.Intn(4), seedAtEntry: rng.Intn(4) != 0,
				helperAt: -1, sampleIv: uint64(16 + rng.Intn(100)),
			}
			if rng.Intn(3) == 0 {
				tc.helperAt, tc.helperFire = rng.Intn(tc.body), 1+rng.Intn(tc.iters)
			}
			if rng.Intn(4) == 0 {
				tc.budget = uint64(1 + rng.Intn(tc.body*tc.iters))
			}
			both(t, int64(trial), tc)
		}
	})

	t.Run("entered mid-block after a helper", func(t *testing.T) {
		// Clean until the helper in the body's 11th instruction fires in the
		// second iteration: the fast loop hands the rest of that block over.
		tc := taintCase{body: 60, iters: 3, helperAt: 10, helperFire: 2, sampleIv: 64}
		def, out := both(t, 6, tc)
		if def.FastPathTBs == 0 || def.FastPathTBs >= def.TBsExecuted {
			t.Errorf("%d of %d blocks on the fast loop: no handoff happened", def.FastPathTBs, def.TBsExecuted)
		}
		if len(out.Events) == 0 {
			t.Error("the seeded taint reached no access; the case is vacuous")
		}
	})

	t.Run("taint decays and the fast loop resumes", func(t *testing.T) {
		// Tainted at entry; the body first overwrites everything tainted, so
		// the taint-aware loop runs the head of the program and the fast
		// loop the rest.
		tc := taintCase{body: 40, iters: 3, seedAtEntry: true, helperAt: -1, sampleIv: 64, scrubFirst: true}
		def, out := both(t, 2, tc)
		if def.FastPathTBs == 0 || def.FastPathTBs >= def.TBsExecuted {
			t.Errorf("%d of %d blocks on the fast loop: taint never decayed, or was never live", def.FastPathTBs, def.TBsExecuted)
		}
		if out.RegMasks != ([tcg.NumMRegs]uint64{}) || out.MemMasks != ([diffWindowSize]uint8{}) {
			t.Error("taint survived the scrub; the case is vacuous")
		}
	})

	t.Run("sample boundary and budget inside chained tainted blocks", func(t *testing.T) {
		// Five iterations of a three-block body, tainted throughout: from the
		// second iteration on the taint-aware loop follows chained edges, the
		// sampler fires every 50 instructions inside them and the budget
		// stops the run inside the fourth iteration.
		tc := taintCase{body: 80, iters: 5, seedAtEntry: true, helperAt: -1, sampleIv: 50, budget: 300}
		def, out := both(t, 3, tc)
		if out.Reason != ReasonBudget || len(out.Samples) != 6 {
			t.Errorf("reason %v, %d samples; want a budget stop after 6 samples", out.Reason, len(out.Samples))
		}
		if def.FastPathTBs != 0 {
			t.Errorf("%d blocks ran clean; the case wants taint live throughout", def.FastPathTBs)
		}
		if def.ChainedTBs == 0 {
			t.Error("no block was reached through a chained edge")
		}
	})
}
