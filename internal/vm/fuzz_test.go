package vm

import (
	"encoding/binary"
	"reflect"
	"testing"

	"chaser/internal/isa"
	"chaser/internal/tcg"
)

// FuzzExecute feeds arbitrary bytes to the decoder and, when they form a
// decodable program, executes it under a small instruction budget. The
// engine must never panic and must always produce a Termination — faults
// become guest signals, never host crashes. This is exactly the property a
// fault injector depends on: arbitrary corrupted code must stay contained.
//
// The input also seeds taint — a register and a stack word, picked by its
// first bytes — so that the run starts on the taint-aware loop, falls to the
// fast loop wherever the taint decays, and is compared with a NoFastPath twin
// of the same program and seeds: termination, registers, counters (but for
// FastPathTBs) and shadow state must be the same.
func FuzzExecute(f *testing.F) {
	mk := func(code ...isa.Instr) []byte { return isa.EncodeProgram(code) }
	f.Add(mk(isa.Instr{Op: isa.OpHlt}))
	f.Add(mk(
		isa.Instr{Op: isa.OpMovI, Rd: isa.R1, Imm: 64},
		isa.Instr{Op: isa.OpSyscall, Imm: int64(isa.SysAlloc)},
		isa.Instr{Op: isa.OpSt, Rs1: isa.R0, Rs2: isa.R1},
		isa.Instr{Op: isa.OpHlt},
	))
	f.Add(mk(
		isa.Instr{Op: isa.OpCall, Imm: int64(isa.CodeBase + isa.InstrSize)},
		isa.Instr{Op: isa.OpRet},
	))
	f.Add(mk(
		isa.Instr{Op: isa.OpMovI, Rd: isa.R2, Imm: 0},
		isa.Instr{Op: isa.OpDiv, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2},
	))
	f.Add(mk(isa.Instr{Op: isa.OpJmp, Imm: int64(isa.CodeBase)}))

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 64*isa.InstrSize {
			return
		}
		raw = raw[:len(raw)/isa.InstrSize*isa.InstrSize]
		code, err := isa.DecodeProgram(raw)
		if err != nil || len(code) == 0 {
			return
		}
		prog := &isa.Program{Name: "fuzz", Entry: isa.CodeBase, Code: code}
		// Deliberately skip Validate: corrupted programs with wild branch
		// targets must still be contained at run time.
		var seed [16]byte
		copy(seed[:], raw)
		reg, regMask := tcg.GPR(isa.Reg(seed[0]%isa.NumRegs)), binary.LittleEndian.Uint64(seed[:8])|1
		word, wordMask := isa.StackTop-64-8*uint64(seed[1]%32), binary.LittleEndian.Uint64(seed[8:])|1
		run := func(noFast bool) fuzzState {
			m := New(prog, Config{MaxInstructions: 10_000, NoFastPath: noFast})
			m.TaintEnabled = true
			m.Shadow.SetRegMask(reg, regMask)
			m.Shadow.SetMemMask64(word, wordMask)
			term := m.Run()
			if term.Reason == 0 {
				t.Fatal("no termination reason")
			}
			st := fuzzState{Term: term, Flags: m.flags, PC: m.pc, Counters: m.Counters(),
				Tainted: m.Shadow.TaintedBytes(), High: m.Shadow.HighWater(), Addrs: m.Shadow.TaintedAddrs(0)}
			st.Counters.FastPathTBs = 0
			copy(st.Regs[:], m.regs[:])
			for r := range st.RegMasks {
				st.RegMasks[r] = m.Shadow.RegMask(tcg.MReg(r))
			}
			for _, a := range st.Addrs {
				st.Masks = append(st.Masks, m.Shadow.MemMask8(a))
			}
			return st
		}
		if def, twin := run(false), run(true); !reflect.DeepEqual(def, twin) {
			t.Fatalf("the default loops and NoFastPath diverged:\ndefault:    %+v\nNoFastPath: %+v\n%s", def, twin, prog.Disassemble())
		}
	})
}

// fuzzState is what FuzzExecute compares between a run and its twin.
type fuzzState struct {
	Term     Termination
	Regs     [tcg.NumMRegs]uint64
	Flags    int64
	PC       uint64
	Counters Counters
	RegMasks [tcg.NumMRegs]uint64
	Tainted  int64
	High     int64
	Addrs    []uint64
	Masks    []uint8
}
