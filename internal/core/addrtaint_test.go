package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/asm"
	"chaser/internal/isa"
	"chaser/internal/obs"
	"chaser/internal/tcg"
)

// frameCopySrc counts down in a frame slot, then copies the frame pointer into
// a register, stores it in the frame and loads it back into that register.
// An identity fault at the loop load's base taints FP: the loop uses FP as an
// address only, the copy carries its taint into memory, and the last load,
// whose destination is then tainted, goes through FP.
const frameCopySrc = `
.entry main
main:
    mov fp, sp
    addi sp, sp, -32
    movi r1, 5
    st [fp-8], r1
loop:
    ld r3, [fp-8]
    addi r3, r3, -1
    st [fp-8], r3
    cmpi r3, 0
    jg loop
    mov r2, fp
    st [fp-16], r2
    ld r2, [fp-16]
    mov r1, r2
    syscall out_int
    movi r1, 0
    syscall exit
`

// shadowState is everything a rank's shadow holds at the end of a run.
type shadowState struct {
	Regs          [tcg.NumMRegs]uint64
	Addrs         []uint64
	Masks         []uint8
	Tainted, High int64
}

// inertRun is one loop configuration's run of an address-taint case.
type inertRun struct {
	res     *RunResult
	shadows []shadowState
	events  []obs.Event
}

// runInert runs cfg on a session of its own, under NoFastPath or with fusion
// off when asked, and returns the result, each rank's final shadow and the
// run's events (timestamps zeroed).
func runInert(t *testing.T, cfg RunConfig, noFast, noFuse bool) inertRun {
	t.Helper()
	cfg.NoFastPath = noFast
	cfg.BaseCache = tcg.NewBaseCache(cfg.Prog)
	cfg.BaseCache.SetFusion(!noFuse)
	sink := obs.NewSink(1 << 16)
	cfg.Events = sink
	s := arenas.New().(*session)
	l, err := s.run(cfg, nil)
	if err != nil || !l.quiet {
		t.Fatalf("run: %v (quiet %v)", err, l.quiet)
	}
	var out inertRun
	for r := 0; r < s.world.Size(); r++ {
		sh := s.world.Machine(r).Shadow
		st := shadowState{Addrs: sh.TaintedAddrs(0), Tainted: sh.TaintedBytes(), High: sh.HighWater()}
		for reg := tcg.MReg(0); reg < tcg.NumMRegs; reg++ {
			st.Regs[reg] = sh.RegMask(reg)
		}
		for _, a := range st.Addrs {
			st.Masks = append(st.Masks, sh.MemMask8(a))
		}
		out.shadows = append(out.shadows, st)
	}
	out.res = l.Own()
	if sink.Dropped() != 0 {
		t.Fatalf("the event sink dropped %d events", sink.Dropped())
	}
	out.events, _ = sink.Since(0, 1<<16)
	for i := range out.events {
		out.events[i].UnixNano = 0
	}
	return out
}

// TestAddressTaintIsInert: an address's taint reaches nothing, so a block that
// touches no tainted register while memory is clean runs on the taint-free
// copy of the loop. A traced identity fault at a load's base register — the
// frame pointer — on matvec, bfs and lud, and on a guest that later copies the
// tainted FP into a register and stores it, runs alike on the default loops,
// under NoFastPath and with fusion off: terminations, outputs, consoles,
// records, counters but FastPathTBs, the propagation log, the events and every
// shadow mask agree, and T0, the address temporary, ends clean on every rank.
func TestAddressTaintIsInert(t *testing.T) {
	guest, err := asm.Assemble("framecopy", frameCopySrc)
	if err != nil {
		t.Fatal(err)
	}
	loads := []isa.Op{isa.OpLd, isa.OpFLd}
	for _, tc := range []struct {
		name string
		prog *isa.Program
		size int
		n    uint64 // the fault's site: the n-th targeted load on rank 0
		ops  []isa.Op
	}{
		{name: "matvec", n: 400},
		{name: "bfs", n: 3000},
		{name: "lud", n: 7000},
		{name: "framecopy", prog: guest, size: 1, n: 2, ops: []isa.Op{isa.OpLd}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.prog == nil {
				app, err := apps.ByName(tc.name)
				if err != nil {
					t.Fatal(err)
				}
				tc.prog, tc.size, tc.ops = app.Prog, app.WorldSize, loads
			}
			cfg := RunConfig{
				Prog: tc.prog, WorldSize: tc.size,
				Spec: &Spec{
					Target: tc.prog.Name, Ops: tc.ops, TargetRank: 0,
					Cond: Deterministic{N: tc.n}, Inj: IdentityInjector{Bits: 1}, Seed: 7, Trace: true,
				},
			}
			def := runInert(t, cfg, false, false)
			if len(def.res.Records) != 1 || !strings.HasPrefix(def.res.Records[0].Target, "reg "+tcg.GPR(isa.FP).String()+" ") {
				t.Fatalf("the fault did not land on the frame pointer: %v", def.res.Records)
			}
			for _, other := range []struct {
				label  string
				noFast bool
				noFuse bool
			}{{"NoFastPath", true, false}, {"fusion off", false, true}} {
				got := runInert(t, cfg, other.noFast, other.noFuse)
				sameInert(t, other.label, def, got)
			}
			for r, st := range def.shadows {
				if st.Regs[tcg.T0] != 0 {
					t.Errorf("rank %d: T0 carries taint %#x", r, st.Regs[tcg.T0])
				}
			}
			if c := def.res.Counters[0]; c.FastPathTBs == 0 {
				t.Errorf("no block of rank 0 ran on the taint-free copy (%d blocks)", c.TBsExecuted)
			}
			if tc.name == "framecopy" {
				c := def.res.Counters[0]
				if def.shadows[0].Tainted == 0 || c.TaintedMemWrites == 0 || len(def.res.Trace.Outputs()) == 0 {
					t.Errorf("the copied frame pointer's taint reached %d bytes in %d writes and %d outputs; the case is vacuous",
						def.shadows[0].Tainted, c.TaintedMemWrites, len(def.res.Trace.Outputs()))
				}
			}
		})
	}
}

// sameInert fails unless got, a run on other loops, agrees with def, the run
// on the default loops, on everything but the blocks each ran on the
// taint-free copy.
func sameInert(t *testing.T, label string, def, got inertRun) {
	t.Helper()
	counters := func(r inertRun) []string {
		var out []string
		for _, c := range r.res.Counters {
			c.FastPathTBs = 0
			out = append(out, fmt.Sprintf("%+v", c))
		}
		return out
	}
	for _, f := range []struct {
		name      string
		want, got any
	}{
		{"terminations", def.res.Terms, got.res.Terms},
		{"outputs", def.res.Outputs, got.res.Outputs},
		{"consoles", def.res.Consoles, got.res.Consoles},
		{"injection records", def.res.Records, got.res.Records},
		{"counters", counters(def), counters(got)},
		{"trace summaries", summarize(def.res), summarize(got.res)},
		{"events", def.events, got.events},
		{"shadows", def.shadows, got.shadows},
	} {
		if !reflect.DeepEqual(f.want, f.got) {
			t.Errorf("%s: %s differ:\n default %v\n %s %v", label, f.name, f.want, label, f.got)
		}
	}
	sameLog(t, label, def.res, got.res)
}
