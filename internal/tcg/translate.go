package tcg

import (
	"fmt"
	"time"

	"chaser/internal/isa"
	"chaser/internal/obs"
)

// MaxTBInstrs bounds the number of guest instructions per translation block.
const MaxTBInstrs = 32

// InstrumentHook runs at translation time for every guest instruction and
// returns micro-ops to prepend in front of the instruction's own translation:
// only instructions the hook chooses to instrument pay any runtime cost.
// Chaser's just-in-time fault injector states its instrumentation as a Probe
// instead, which a hook cannot be shared as.
type InstrumentHook func(ins isa.Instr, pc uint64) []Op

// OpSet is a set of guest opcodes, one bit per isa.Op value.
type OpSet [4]uint64

// OpSetOf returns the set holding ops.
func OpSetOf(ops ...isa.Op) OpSet {
	var s OpSet
	for _, op := range ops {
		s[op>>6] |= 1 << (op & 63)
	}
	return s
}

// Has reports whether op is in the set.
func (s *OpSet) Has(op isa.Op) bool { return s[op>>6]&(1<<(op&63)) != 0 }

// Probe is instrumentation stated as data instead of as an InstrumentHook: a
// call of helper number Helper in front of every guest instruction whose
// opcode is in Ops. What a probe makes of a block depends on the block and
// the probe alone, so translators that share a BaseCache share the
// instrumented block as well (the overlay of a translator that also carries
// hooks stays private). The zero Probe instruments nothing.
type Probe struct {
	Ops    OpSet
	Helper int
}

// Stats counts translator activity.
type Stats struct {
	Translations uint64 // blocks translated by this translator
	CacheHits    uint64 // overlay hits (includes pass-through base blocks)
	CacheMisses  uint64 // overlay misses
	BaseHits     uint64 // overlay misses that found their block, clean or probed, in the shared base cache
	BaseMisses   uint64 // overlay misses that found nothing there
	Flushes      uint64
	HelperOps    uint64 // instrumentation micro-ops inserted
	OptRewrites  uint64 // peephole rewrites applied
	FusedOps     uint64 // micro-op pairs collapsed by the fusion pass
	OpsEmitted   uint64 // micro-ops emitted into translated blocks

	// OverlayBlocks and InstrumentedBlocks are snapshots, not counters: the
	// current overlay population and how many of those blocks were privately
	// translated because a hook instrumented them.
	OverlayBlocks      uint64
	InstrumentedBlocks uint64
}

// Translator converts guest code into cached translation blocks.
//
// The cache is two-layered. The base layer is a shared, immutable BaseCache
// of clean translations, typically one per campaign; the overlay is this
// translator's private view, holding instrumented blocks plus pass-through
// references to base blocks. Block consults the overlay first, then the base;
// AddHook, SetProbe and Flush invalidate only the overlay, so arming an
// injector on one machine never throws away (or races with) the translations
// its peers share.
type Translator struct {
	prog    *isa.Program
	base    *BaseCache
	overlay map[uint64]*TB
	// instrumented counts overlay blocks that carry instrumentation micro-ops:
	// translated privately because a hook placed them, or the probe's, which
	// are translated once per base cache.
	instrumented uint64
	hooks        []InstrumentHook
	probe        Probe // the zero Probe, whose op set is empty, is no probe
	stats        Stats
	noOpt        bool
	noFuse       bool
	gen          uint64

	// obsLat, when attached, observes per-block translation latency. It is
	// the only live instrument on the translator: translations are rare
	// (cache misses only), so the time.Now pair is off the execution hot
	// path; all other translator telemetry is flushed from Stats at run end.
	obsLat *obs.Histogram
}

// NewTranslator creates a translator with a private base cache and the
// peephole optimizer enabled.
func NewTranslator(prog *isa.Program) *Translator {
	return NewSharedTranslator(prog, NewBaseCache(prog))
}

// NewSharedTranslator creates a translator whose clean translations are
// served from (and published into) the shared base cache. A nil base, or one
// built for a different program, falls back to a private cache.
func NewSharedTranslator(prog *isa.Program, base *BaseCache) *Translator {
	t := new(Translator)
	t.Reset(prog, base)
	return t
}

// maxKeptOverlay bounds the overlay a reset translator keeps: a Go map never
// shrinks.
const maxKeptOverlay = 1024

// Reset makes t the translator NewSharedTranslator(prog, base) returns,
// keeping the storage of its overlay and its hook list. A nil prog empties it
// instead: it then holds no program, base cache, block or hook, and serves
// nothing until the next Reset. A machine's translator is reset, not made
// anew, when its machine is recycled.
func (t *Translator) Reset(prog *isa.Program, base *BaseCache) {
	overlay := t.overlay
	if overlay == nil || len(overlay) > maxKeptOverlay {
		overlay = make(map[uint64]*TB)
	} else if len(overlay) > 0 {
		clear(overlay)
	}
	clear(t.hooks)
	*t = Translator{overlay: overlay, hooks: t.hooks[:0]}
	if prog == nil {
		return
	}
	if base == nil || base.prog != prog {
		base = NewBaseCache(prog)
	}
	t.prog, t.base, t.noOpt, t.noFuse = prog, base, base.noOpt, base.noFuse
}

// SetOptimizer toggles the peephole optimizer (on by default); campaigns
// never need to touch this, but the ablation benchmarks do. Disabling the
// optimizer disables the fusion pass too: fused kinds are an optimizer
// product, so the "optimizer off" baseline is the raw expander output.
func (t *Translator) SetOptimizer(on bool) {
	t.noOpt = !on
}

// SetFusion toggles the micro-op fusion pass alone (on by default), leaving
// the 1:1 peephole rewrites in place. Only the fusion ablation benchmarks
// need this.
func (t *Translator) SetFusion(on bool) {
	t.noFuse = !on
}

// AddHook registers an instrumentation hook. Hooks apply to blocks translated
// after registration; call Flush to force retranslation of cached blocks.
func (t *Translator) AddHook(h InstrumentHook) {
	t.hooks = append(t.hooks, h)
}

// SetProbe arms p, replacing any earlier probe. Like AddHook it applies to
// blocks translated afterwards; call Flush to re-decide cached ones.
func (t *Translator) SetProbe(p Probe) {
	t.probe = p
}

// ClearHooks removes all instrumentation, every hook and the probe. A plugin
// that detaches while others may still be attached disarms only what it
// armed: Chaser's fi_clean_cb calls SetProbe(Probe{}).
func (t *Translator) ClearHooks() {
	t.hooks = nil
	t.probe = Probe{}
}

// shares reports whether the translator's instrumented blocks are the
// probe's alone, and so the same for every translator with that probe.
func (t *Translator) shares() bool { return t.probe.Ops != OpSet{} && len(t.hooks) == 0 }

// Flush empties the translation overlay, forcing the next lookup of every
// block to re-decide instrumentation — invoked when the target process
// creation event is captured. The shared base cache is untouched: clean
// blocks are re-admitted through it without retranslation, so only blocks an
// armed hook actually instruments are translated again. Bumping the
// generation invalidates every chained block edge.
func (t *Translator) Flush() {
	clear(t.overlay)
	t.instrumented = 0
	t.stats.Flushes++
	t.gen++
}

// Gen returns the current translation-overlay generation.
func (t *Translator) Gen() uint64 { return t.gen }

// Base returns the shared base cache this translator publishes into.
func (t *Translator) Base() *BaseCache { return t.base }

// Stats returns a snapshot of translator counters.
func (t *Translator) Stats() Stats {
	s := t.stats
	s.OverlayBlocks = uint64(len(t.overlay))
	s.InstrumentedBlocks = t.instrumented
	return s
}

// AttachObs registers the translator's live instruments on reg (nil disables
// them). Call before the machine runs.
func (t *Translator) AttachObs(reg *obs.Registry) {
	t.obsLat = reg.Histogram("tcg_translate_seconds", obs.LatencyBuckets...)
}

// Block returns the translation block starting at guest address pc.
//
// Lookup order: the private overlay first, then the shared base cache. A
// base block is admitted into the overlay as a pass-through reference when
// the armed instrumentation leaves it alone, and a block the probe alone
// instruments is taken from the base cache's probed blocks, so the
// instrumentation decision is made once per block, not once per execution.
// Only on a full miss (or when a hook claims the block) does the translator
// do translation work; clean and probed results are published to the shared
// base so peers and later runs skip them.
func (t *Translator) Block(pc uint64) (*TB, error) {
	if tb, ok := t.overlay[pc]; ok {
		t.stats.CacheHits++
		return tb, nil
	}
	t.stats.CacheMisses++
	clean, found := t.base.lookup(pc)
	if found && !t.wants(clean) {
		t.countBase(true)
		t.overlay[pc] = clean
		return clean, nil
	}
	if t.shares() {
		if tb, ok := t.base.lookupProbed(pc, t.probe); ok {
			t.countBase(true)
			t.instrumented++
			t.overlay[pc] = tb
			return tb, nil
		}
	}
	t.countBase(found)
	var tStart time.Time
	if t.obsLat != nil {
		tStart = time.Now()
	}
	tb, inserted, err := t.translate(pc)
	if err != nil {
		return nil, err
	}
	if t.obsLat != nil {
		t.obsLat.Observe(time.Since(tStart).Seconds())
	}
	if !t.noOpt {
		// Fusion runs first: the peephole would rewrite zero-displacement
		// KAddI addressing into KMov and hide the dominant fusion pattern.
		if !t.noFuse {
			var fused uint64
			tb.Ops, fused = fuse(tb.Ops)
			t.stats.FusedOps += fused
		}
		t.stats.OptRewrites += optimize(tb.Ops)
	}
	tb.OpCounts = countOps(tb.Ops)
	setRegs(tb.Ops)
	t.stats.Translations++
	// Publish what does not depend on this translator. The base returns the
	// canonical block, so machines that raced on the same miss share one *TB.
	switch {
	case inserted == 0:
		tb = t.base.insert(pc, tb)
	case t.shares():
		t.instrumented++
		tb = t.base.insertProbed(pc, t.probe, tb)
	default:
		t.instrumented++
	}
	t.overlay[pc] = tb
	return tb, nil
}

// countBase counts one overlay miss as found or not in the base cache.
func (t *Translator) countBase(hit bool) {
	if hit {
		t.stats.BaseHits++
		t.base.hits.Add(1)
	} else {
		t.stats.BaseMisses++
		t.base.misses.Add(1)
	}
}

// wants reports whether the armed instrumentation would place micro-ops in
// front of an instruction of the (clean) block tb. It is called once per
// block per overlay admission, never on the execution hot path.
func (t *Translator) wants(tb *TB) bool {
	if t.probe.Ops == (OpSet{}) && len(t.hooks) == 0 {
		return false
	}
	for i := range tb.Ops {
		op := &tb.Ops[i]
		if !op.First {
			continue
		}
		// A fused compare-and-branch covers a second guest instruction whose
		// First boundary was folded away; probe it too so instrumentation of
		// branch opcodes still claims the block (retranslation then inserts
		// the helper between cmp and jcc, which blocks the fusion).
		fused := op.Kind == KCmpBr || op.Kind == KCmpBrI
		if t.probe.Ops.Has(op.GuestOp) || fused && t.probe.Ops.Has(op.GuestOp2) {
			return true
		}
		if t.hooksWant(op.GuestPC) || fused && t.hooksWant(op.GuestPC2) {
			return true
		}
	}
	return false
}

// hooksWant reports whether a hook instruments the guest instruction at pc.
func (t *Translator) hooksWant(pc uint64) bool {
	if len(t.hooks) == 0 {
		return false
	}
	ins, ok := t.prog.InstrAt(pc)
	if !ok {
		return false
	}
	for _, h := range t.hooks {
		if len(h(ins, pc)) > 0 {
			return true
		}
	}
	return false
}

// translate builds a TB beginning at pc, returning the number of
// instrumentation micro-ops the armed hooks inserted.
func (t *Translator) translate(pc uint64) (*TB, int, error) {
	tb := &TB{PC: pc}
	inserted := 0
	cur := pc
	for tb.GuestLen < MaxTBInstrs {
		ins, ok := t.prog.InstrAt(cur)
		if !ok {
			if tb.GuestLen > 0 {
				// A block that runs off the end of code: let execution
				// reach the bad address and fault there.
				break
			}
			return nil, 0, &isa.BadOpcodeError{PC: cur, Opcode: 0}
		}
		if t.probe.Ops.Has(ins.Op) {
			tb.Ops = append(tb.Ops, Op{Kind: KHelper, Helper: t.probe.Helper, GuestPC: cur, GuestOp: ins.Op})
			t.stats.HelperOps++
			inserted++
		}
		for _, h := range t.hooks {
			pre := h(ins, cur)
			for i := range pre {
				pre[i].GuestPC = cur
				pre[i].GuestOp = ins.Op
			}
			t.stats.HelperOps += uint64(len(pre))
			inserted += len(pre)
			tb.Ops = append(tb.Ops, pre...)
		}
		ops, err := expand(ins, cur)
		if err != nil {
			return nil, 0, err
		}
		if len(ops) > 0 {
			ops[0].First = true
		}
		tb.Ops = append(tb.Ops, ops...)
		tb.GuestLen++
		cur += isa.InstrSize
		if ins.Op.IsBranch() || ins.Op == isa.OpSyscall {
			break
		}
	}
	tb.NextPC = cur
	t.stats.OpsEmitted += uint64(len(tb.Ops))
	return tb, inserted, nil
}

// expand translates one guest instruction into micro-ops.
func expand(ins isa.Instr, pc uint64) ([]Op, error) {
	g := func(r isa.Reg) MReg { return GPR(r) }
	f := func(r isa.Reg) MReg { return FPR(r) }
	base := Op{GuestPC: pc, GuestOp: ins.Op}
	one := func(k Kind, a0, a1, a2 MReg, imm int64) []Op {
		op := base
		op.Kind, op.A0, op.A1, op.A2, op.Imm = k, a0, a1, a2, imm
		return []Op{op}
	}
	next := int64(pc + isa.InstrSize)

	switch ins.Op {
	case isa.OpNop:
		return one(KNop, 0, 0, 0, 0), nil
	case isa.OpHlt:
		return one(KHlt, 0, 0, 0, 0), nil
	case isa.OpMovI:
		return one(KMovI, g(ins.Rd), 0, 0, ins.Imm), nil
	case isa.OpMov:
		return one(KMov, g(ins.Rd), g(ins.Rs1), 0, 0), nil
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr:
		return one(intKind(ins.Op), g(ins.Rd), g(ins.Rs1), g(ins.Rs2), 0), nil
	case isa.OpAddI:
		return one(KAddI, g(ins.Rd), g(ins.Rs1), 0, ins.Imm), nil
	case isa.OpMulI:
		return one(KMulI, g(ins.Rd), g(ins.Rs1), 0, ins.Imm), nil
	case isa.OpNot:
		return one(KNot, g(ins.Rd), g(ins.Rs1), 0, 0), nil
	case isa.OpFMovI:
		return one(KMovI, f(ins.Rd), 0, 0, ins.Imm), nil
	case isa.OpFMov:
		return one(KMov, f(ins.Rd), f(ins.Rs1), 0, 0), nil
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv:
		return one(floatKind(ins.Op), f(ins.Rd), f(ins.Rs1), f(ins.Rs2), 0), nil
	case isa.OpFNeg:
		return one(KFNeg, f(ins.Rd), f(ins.Rs1), 0, 0), nil
	case isa.OpCvtIF:
		return one(KCvtIF, f(ins.Rd), g(ins.Rs1), 0, 0), nil
	case isa.OpCvtFI:
		return one(KCvtFI, g(ins.Rd), f(ins.Rs1), 0, 0), nil

	case isa.OpLd, isa.OpLdB, isa.OpFLd:
		addr := one(KAddI, T0, g(ins.Rs1), 0, ins.Imm)
		dst := g(ins.Rd)
		kind := KLd64
		if ins.Op == isa.OpLdB {
			kind = KLd8
		}
		if ins.Op == isa.OpFLd {
			dst = f(ins.Rd)
		}
		return append(addr, one(kind, dst, T0, 0, 0)...), nil
	case isa.OpSt, isa.OpStB, isa.OpFSt:
		addr := one(KAddI, T0, g(ins.Rs1), 0, ins.Imm)
		src := g(ins.Rs2)
		kind := KSt64
		if ins.Op == isa.OpStB {
			kind = KSt8
		}
		if ins.Op == isa.OpFSt {
			src = f(ins.Rs2)
		}
		return append(addr, one(kind, 0, T0, src, 0)...), nil

	case isa.OpCmp:
		return one(KSetc, FlagsReg, g(ins.Rs1), g(ins.Rs2), 0), nil
	case isa.OpCmpI:
		return one(KSetcI, FlagsReg, g(ins.Rs1), 0, ins.Imm), nil
	case isa.OpFCmp:
		return one(KFSetc, FlagsReg, f(ins.Rs1), f(ins.Rs2), 0), nil

	case isa.OpJmp:
		return one(KBr, 0, 0, 0, ins.Imm), nil
	case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge:
		op := base
		op.Kind, op.Imm, op.Imm2, op.Cond = KBrCond, ins.Imm, next, ins.Op
		return []Op{op}, nil
	case isa.OpCall:
		op := base
		op.Kind, op.Imm, op.Imm2 = KCall, ins.Imm, next
		return []Op{op}, nil
	case isa.OpRet:
		return one(KRet, 0, 0, 0, 0), nil

	case isa.OpPush, isa.OpFPush:
		src := g(ins.Rs1)
		if ins.Op == isa.OpFPush {
			src = f(ins.Rs1)
		}
		ops := one(KAddI, SPReg, SPReg, 0, -8)
		return append(ops, one(KSt64, 0, SPReg, src, 0)...), nil
	case isa.OpPop, isa.OpFPop:
		dst := g(ins.Rd)
		if ins.Op == isa.OpFPop {
			dst = f(ins.Rd)
		}
		ops := one(KLd64, dst, SPReg, 0, 0)
		return append(ops, one(KAddI, SPReg, SPReg, 0, 8)...), nil

	case isa.OpSyscall:
		op := base
		op.Kind, op.Imm, op.Imm2 = KSyscall, ins.Imm, next
		return []Op{op}, nil
	}
	return nil, fmt.Errorf("tcg: cannot translate %v at %#x", ins.Op, pc)
}

func intKind(op isa.Op) Kind {
	switch op {
	case isa.OpAdd:
		return KAdd
	case isa.OpSub:
		return KSub
	case isa.OpMul:
		return KMul
	case isa.OpDiv:
		return KDiv
	case isa.OpMod:
		return KMod
	case isa.OpAnd:
		return KAnd
	case isa.OpOr:
		return KOr
	case isa.OpXor:
		return KXor
	case isa.OpShl:
		return KShl
	case isa.OpShr:
		return KShr
	}
	return KInvalid
}

func floatKind(op isa.Op) Kind {
	switch op {
	case isa.OpFAdd:
		return KFAdd
	case isa.OpFSub:
		return KFSub
	case isa.OpFMul:
		return KFMul
	case isa.OpFDiv:
		return KFDiv
	}
	return KInvalid
}
