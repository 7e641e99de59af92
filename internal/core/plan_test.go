package core

import (
	"fmt"
	"strings"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/isa"
	"chaser/internal/tcg"
	"chaser/internal/vm"
)

// TestPlanIsWhatTheInjectorDid: PlanOperandFault, computed without a machine,
// is the fault OperandInjector performs on one — over 10,000 seeds, every
// opcode the bundled apps target (an instruction of the app's own), a load's
// memory word mapped and unmapped, 1, 2 and 16 bits and ranks 0 to 3. The
// mask is the record's, a memory target is a planned memory fault, a
// register target is the planned register (for a load whose coin chose an
// unmapped word, the planned fallback). And the injector's one sequence of
// draws, given what the memory word did, leaves the stream where Inject left
// it: the next value drawn is the same.
func TestPlanIsWhatTheInjectorDid(t *testing.T) {
	type target struct {
		app    string
		ins    isa.Instr
		pc     uint64
		mapped bool // a load's effective address is mapped
	}
	var targets []target
	seen := map[isa.Op]bool{}
	for _, app := range apps.All() {
		for _, op := range app.DefaultOps {
			if seen[op] {
				continue
			}
			seen[op] = true
			for i, ins := range app.Prog.Code {
				if ins.Op != op {
					continue
				}
				pc := isa.CodeBase + uint64(i)*isa.InstrSize
				targets = append(targets, target{app.Name, ins, pc, true})
				if op == isa.OpLd || op == isa.OpFLd || op == isa.OpLdB {
					targets = append(targets, target{app.Name, ins, pc, false})
				}
				break
			}
		}
	}
	for _, op := range []isa.Op{isa.OpLd, isa.OpFLd, isa.OpSt, isa.OpFAdd, isa.OpCmp, isa.OpMov} {
		if !seen[op] {
			t.Fatalf("no bundled app targets %v", op)
		}
	}

	const mappedWord, unmappedWord = isa.StackTop - 64, 0x50
	for _, tg := range targets {
		app, err := apps.ByName(tg.app)
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(app.Prog, vm.Config{})
		if _, err := m.Mem.Read64(mappedWord); err != nil {
			t.Fatalf("the stack word %#x is not mapped: %v", uint64(mappedWord), err)
		}
		word := uint64(unmappedWord)
		if tg.mapped {
			word = mappedWord
		}
		base := word - uint64(tg.ins.Imm)
		op := &tcg.Op{GuestPC: tg.pc, GuestOp: tg.ins.Op}
		label := fmt.Sprintf("%s %v @ %#x mapped=%v", tg.app, tg.ins.Op, tg.pc, tg.mapped)
		for i := int64(0); i < 10_000; i++ {
			seed := (i - 5_000) * 7919
			for _, bits := range []int{1, 2, 16} {
				for rank := 0; rank < 4; rank++ {
					at := fmt.Sprintf("%s, seed %d, %d bits, rank %d", label, seed, bits, rank)
					m.Rank = rank
					m.SetGPR(tg.ins.Rs1, base)
					rng := rankStream(seed, rank)
					rec, err := OperandInjector{Bits: bits}.Inject(&Context{Machine: m, Op: op, Instr: tg.ins, Rng: rng})
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					plan := PlanOperandFault(seed, rank, bits, tg.ins)
					inMem := strings.HasPrefix(rec.Target, "mem ")
					switch {
					case rec.Mask != plan.Mask:
						t.Fatalf("%s: mask %#x, planned %#x", at, rec.Mask, plan.Mask)
					case inMem && (!plan.Mem || !tg.mapped),
						!inMem && (rec.Target != "reg "+plan.Reg.String() || plan.Mem && tg.mapped):
						t.Fatalf("%s: injected %s, planned %+v", at, rec.Target, plan)
					}
					again := rankStream(seed, rank)
					drawOperandFault(again, bits, tg.ins, func(uint64) bool { return tg.mapped })
					if a, b := rng.Int63(), again.Int63(); a != b {
						t.Fatalf("%s: the injector left its stream at %d, the plan at %d", at, a, b)
					}
					// Undo the fault: the next one starts from the same machine.
					if inMem {
						m.Mem.Write64(word, rec.Before)
					} else {
						m.SetReg(plan.Reg, rec.Before)
					}
				}
			}
		}
	}
	t.Logf("%d targets, %d faults each", len(targets), 10_000*3*4)
}
