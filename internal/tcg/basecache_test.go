package tcg

import (
	"sync"
	"testing"

	"chaser/internal/isa"
)

// raceProg builds a program with several chained blocks so concurrent
// translators exercise multiple cache entries.
func raceProg() *isa.Program {
	var code []isa.Instr
	for b := 0; b < 8; b++ {
		code = append(code,
			isa.Instr{Op: isa.OpMovI, Rd: isa.R1, Imm: int64(b)},
			isa.Instr{Op: isa.OpFAdd, Rd: isa.F0, Rs1: isa.F1, Rs2: isa.F2},
			isa.Instr{Op: isa.OpJmp, Imm: int64(isa.CodeBase + uint64(b+1)*3*isa.InstrSize)},
		)
	}
	code = append(code, isa.Instr{Op: isa.OpHlt})
	return &isa.Program{Name: "race", Entry: isa.CodeBase, Code: code}
}

// TestBaseCacheConcurrentTranslators hammers one shared base from many
// translators — some clean, some arming hooks and flushing in a loop — and
// checks that every translator sees correct, canonical blocks. Run under
// -race this is the concurrency-safety proof for the shared cache.
func TestBaseCacheConcurrentTranslators(t *testing.T) {
	p := raceProg()
	base := NewBaseCache(p)
	pcs := make([]uint64, 0, 9)
	for b := 0; b <= 8; b++ {
		pcs = append(pcs, isa.CodeBase+uint64(b)*3*isa.InstrSize)
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := NewSharedTranslator(p, base)
			armed := w%4 == 0 // every fourth translator injects
			switch {
			case w%8 == 0: // half of them with one probe, sharing its blocks
				tr.SetProbe(Probe{Ops: OpSetOf(isa.OpFAdd), Helper: 7})
			case armed:
				tr.AddHook(func(ins isa.Instr, pc uint64) []Op {
					if ins.Op != isa.OpFAdd {
						return nil
					}
					return []Op{{Kind: KHelper, Helper: w}}
				})
			}
			for round := 0; round < 50; round++ {
				for _, pc := range pcs {
					tb, err := tr.Block(pc)
					if err != nil {
						errs <- err
						return
					}
					helpers := 0
					for i := range tb.Ops {
						if tb.Ops[i].Kind == KHelper {
							helpers++
						}
					}
					wantHelpers := 0
					if armed && tb.PC != pcs[len(pcs)-1] {
						wantHelpers = 1 // each non-hlt block holds one fadd
					}
					if helpers != wantHelpers {
						t.Errorf("worker %d pc %#x: %d helper ops, want %d", w, pc, helpers, wantHelpers)
						return
					}
				}
				if armed {
					tr.Flush() // exercise overlay invalidation under load
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := base.Len(); n != len(pcs) {
		t.Errorf("base blocks = %d, want %d", n, len(pcs))
	}
	bs := base.Stats()
	if bs.Hits == 0 || bs.Misses == 0 {
		t.Errorf("base stats = %+v, want activity on both counters", bs)
	}
}

// TestProbedBlocksShared: a probe's instrumented block is published beside
// the clean one, so a second translator with the same probe translates
// nothing; another op set, another helper, and a hook on top of the probe
// each get a block of their own, and the hooked one stays private.
func TestProbedBlocksShared(t *testing.T) {
	p := raceProg()
	base := NewBaseCache(p)
	probe := Probe{Ops: OpSetOf(isa.OpFAdd), Helper: 0}
	block := func(arm func(*Translator)) (*TB, Stats) {
		t.Helper()
		tr := NewSharedTranslator(p, base)
		arm(tr)
		tr.Flush()
		tb, err := tr.Block(isa.CodeBase)
		if err != nil {
			t.Fatal(err)
		}
		return tb, tr.Stats()
	}
	helperAt := func(tb *TB) int {
		for i, op := range tb.Ops {
			if op.Kind == KHelper {
				if op.GuestOp != isa.OpFAdd || op.GuestPC != isa.CodeBase+isa.InstrSize {
					t.Errorf("helper placed at %v @ %#x", op.GuestOp, op.GuestPC)
				}
				return i
			}
		}
		return -1
	}

	first, st := block(func(tr *Translator) { tr.SetProbe(probe) })
	if helperAt(first) < 0 || st.Translations != 1 || st.InstrumentedBlocks != 1 || st.BaseMisses != 1 {
		t.Fatalf("first probed translation: helper at %d, stats %+v", helperAt(first), st)
	}
	second, st := block(func(tr *Translator) { tr.SetProbe(probe) })
	if second != first || st.Translations != 0 || st.InstrumentedBlocks != 1 || st.BaseHits != 1 || st.BaseMisses != 0 {
		t.Errorf("second translator with the probe: shared=%v stats %+v", second == first, st)
	}
	if bs := base.Stats(); bs.Blocks != 0 || bs.Probed != 1 {
		t.Errorf("cache holds %d clean and %d probed blocks, want 0 and 1", bs.Blocks, bs.Probed)
	}

	if tb, _ := block(func(tr *Translator) { tr.SetProbe(Probe{Ops: OpSetOf(isa.OpFAdd, isa.OpJmp)}) }); tb == first {
		t.Error("a wider op set got the same block")
	}
	if tb, _ := block(func(tr *Translator) { tr.SetProbe(Probe{Ops: probe.Ops, Helper: 1}) }); tb == first {
		t.Error("another helper id got the same block")
	}
	hook := func(isa.Instr, uint64) []Op { return nil }
	hooked, _ := block(func(tr *Translator) { tr.SetProbe(probe); tr.AddHook(hook) })
	again, st := block(func(tr *Translator) { tr.SetProbe(probe); tr.AddHook(hook) })
	if hooked == first || again == hooked || st.Translations != 1 {
		t.Errorf("a translator with a hook beside the probe must translate privately (stats %+v)", st)
	}
	// One copy of the block per distinct probe, and none for the hooked one.
	if bs := base.Stats(); bs.Probed != 3 {
		t.Errorf("%d probed blocks published for three distinct probes", bs.Probed)
	}

	// A probe that wants nothing in the block passes the clean block through,
	// and ClearHooks drops the probe.
	clean, _ := block(func(*Translator) {})
	if tb, _ := block(func(tr *Translator) { tr.SetProbe(Probe{Ops: OpSetOf(isa.OpFDiv)}) }); tb != clean {
		t.Error("a probe that matches no instruction did not get the clean block")
	}
	if tb, _ := block(func(tr *Translator) { tr.SetProbe(probe); tr.ClearHooks() }); tb != clean {
		t.Error("ClearHooks left the probe armed")
	}
}
