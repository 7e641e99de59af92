package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"chaser/internal/asm"
	"chaser/internal/decaf"
	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/tcg"
	"chaser/internal/vm"
)

func TestFaultModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	det := Deterministic{N: 5}
	for n := uint64(1); n <= 10; n++ {
		if got := det.ShouldInject(n, rng); got != (n == 5) {
			t.Errorf("det(%d) = %v", n, got)
		}
	}

	grp := Group{Start: 4, Every: 3}
	wantFire := map[uint64]bool{4: true, 7: true, 10: true}
	for n := uint64(1); n <= 11; n++ {
		if got := grp.ShouldInject(n, rng); got != wantFire[n] {
			t.Errorf("group(%d) = %v", n, got)
		}
	}
	dense := Group{Start: 2, Every: 0}
	if dense.ShouldInject(1, rng) || !dense.ShouldInject(2, rng) || !dense.ShouldInject(3, rng) {
		t.Error("group with every=0 should fire on every execution from start")
	}

	// Probabilistic: empirical frequency near p.
	p := Probabilistic{P: 0.3}
	hits := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if p.ShouldInject(uint64(i), rng) {
			hits++
		}
	}
	freq := float64(hits) / trials
	if freq < 0.25 || freq > 0.35 {
		t.Errorf("probabilistic frequency = %v, want ~0.3", freq)
	}

	if !strings.Contains(det.String(), "5") || !strings.Contains(grp.String(), "4") ||
		!strings.Contains(p.String(), "0.3") {
		t.Error("model String() forms wrong")
	}
}

func TestRandomBitMask(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bits := range []int{1, 2, 8, 64} {
		mask := RandomBitMask(bits, rng)
		if got := popcount(mask); got != bits {
			t.Errorf("RandomBitMask(%d) has %d bits", bits, got)
		}
	}
	if popcount(RandomBitMask(0, rng)) != 1 {
		t.Error("bits<1 not clamped to 1")
	}
	if popcount(RandomBitMask(99, rng)) != 64 {
		t.Error("bits>64 not clamped to 64")
	}
}

func popcount(v uint64) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Property: RandomBitMask always returns the requested popcount.
func TestRandomBitMaskQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(bits uint8) bool {
		b := int(bits%64) + 1
		return popcount(RandomBitMask(b, rng)) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorruptRegisterAndMemory(t *testing.T) {
	prog, err := asm.Assemble("t", "main:\n movi r1, 64\n syscall alloc\n hlt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog, vm.Config{})
	m.TaintEnabled = true
	if term := m.Run(); term.Reason != vm.ReasonExited {
		t.Fatal(term)
	}

	m.SetGPR(isa.R3, 0xff00)
	before, after := CorruptRegister(m, tcg.GPR(isa.R3), 0x0ff0, true)
	if before != 0xff00 || after != 0xf0f0 {
		t.Errorf("CorruptRegister = %#x -> %#x", before, after)
	}
	if m.GPR(isa.R3) != 0xf0f0 {
		t.Error("register not updated")
	}
	if m.Shadow.RegMask(tcg.GPR(isa.R3)) != 0x0ff0 {
		t.Error("register taint not seeded")
	}

	addr := isa.HeapBase
	if err := m.Mem.Write64(addr, 0x1111); err != nil {
		t.Fatal(err)
	}
	b, a, err := CorruptMemory(m, addr, 0x00ff, true)
	if err != nil || b != 0x1111 || a != 0x11ee {
		t.Errorf("CorruptMemory = %#x -> %#x, %v", b, a, err)
	}
	if got, _ := m.Mem.Read64(addr); got != 0x11ee {
		t.Error("memory not updated")
	}
	if m.Shadow.MemMask64(addr) != 0x00ff {
		t.Error("memory taint not seeded")
	}
	if _, _, err := CorruptMemory(m, 0x50, 1, false); err == nil {
		t.Error("corrupting unmapped memory succeeded")
	}
}

// fpProg executes fadd exactly 4 times with observable results.
func fpProg(t *testing.T) *isa.Program {
	t.Helper()
	prog, err := lang.Compile(&lang.Program{Name: "fp_app", Funcs: []*lang.Func{{
		Name: "main",
		Body: lang.Block(
			lang.Let("s", lang.F(0)),
			lang.For{Var: "i", From: lang.I(0), To: lang.I(4), Body: lang.Block(
				lang.Set("s", lang.Add(V_("s"), lang.F(1.5))),
			)},
			lang.OutFloat{E: V_("s")},
		),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func V_(n string) lang.Expr { return lang.V(n) }

func TestDeterministicInjectionFires(t *testing.T) {
	res, err := Run(RunConfig{
		Prog: fpProg(t),
		Spec: &Spec{
			Target: "fp_app",
			Ops:    []isa.Op{isa.OpFAdd},
			Cond:   Deterministic{N: 3},
			Bits:   2,
			Seed:   42,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Injected() {
		t.Fatal("no injection performed")
	}
	if len(res.Records) != 1 {
		t.Fatalf("records = %d, want 1 (detach after MaxInjections)", len(res.Records))
	}
	rec := res.Records[0]
	if rec.ExecCount != 3 || rec.GuestOp != isa.OpFAdd {
		t.Errorf("record = %+v", rec)
	}
	if popcount(rec.Mask) != 2 {
		t.Errorf("mask popcount = %d, want 2", popcount(rec.Mask))
	}
	if rec.Before == rec.After {
		t.Error("injection did not change the value")
	}
	if !strings.Contains(rec.String(), "fadd") {
		t.Errorf("record string = %q", rec.String())
	}
}

func TestInjectionIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) InjectionRecord {
		res, err := Run(RunConfig{
			Prog: fpProg(t),
			Spec: &Spec{Target: "fp_app", Ops: []isa.Op{isa.OpFAdd},
				Cond: Deterministic{N: 2}, Bits: 3, Seed: seed},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != 1 {
			t.Fatal("no injection")
		}
		return res.Records[0]
	}
	a1, a2 := run(7), run(7)
	if a1.Mask != a2.Mask || a1.Target != a2.Target {
		t.Error("same seed produced different injections")
	}
	b := run(8)
	if a1.Mask == b.Mask && a1.Target == b.Target {
		t.Error("different seeds produced identical injections (suspicious)")
	}
}

func TestGroupInjectsMultiple(t *testing.T) {
	res, err := Run(RunConfig{
		Prog: fpProg(t),
		Spec: &Spec{
			Target: "fp_app", Ops: []isa.Op{isa.OpFAdd},
			Cond: Group{Start: 1, Every: 1}, MaxInjections: 1 << 30,
			Bits: 1, Seed: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("records = %d, want 4 (every fadd)", len(res.Records))
	}
}

func TestUntargetedProcessNotInstrumented(t *testing.T) {
	res, err := Run(RunConfig{
		Prog: fpProg(t),
		Spec: &Spec{Target: "other_app", Ops: []isa.Op{isa.OpFAdd},
			Cond: Deterministic{N: 1}, Bits: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected() {
		t.Error("injection fired in non-target process")
	}
	if res.Terms[0].Reason != vm.ReasonExited {
		t.Errorf("term = %v", res.Terms[0])
	}
}

func TestIdentityInjectorKeepsBehaviour(t *testing.T) {
	golden, err := Golden(fpProg(t), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Prog: fpProg(t),
		Spec: &Spec{
			Target: "fp_app", Ops: []isa.Op{isa.OpFAdd},
			Cond: Deterministic{N: 2}, Inj: IdentityInjector{Bits: 8},
			Trace: true, Seed: 5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Injected() {
		t.Fatal("identity injection did not fire")
	}
	if string(res.Outputs[0]) != string(golden.Outputs[0]) {
		t.Error("identity injection changed the output")
	}
	rec := res.Records[0]
	if rec.Before != rec.After {
		t.Error("identity injection changed a value")
	}
	// But it seeds taint, so tracing has work to do.
	if res.Trace.TotalReads()+res.Trace.TotalWrites() == 0 {
		t.Error("identity injection with tracing produced no taint activity")
	}
}

func TestTracingProducesEventsAndSamples(t *testing.T) {
	res, err := Run(RunConfig{
		Prog: fpProg(t),
		Spec: &Spec{
			Target: "fp_app", Ops: []isa.Op{isa.OpFAdd},
			Cond: Deterministic{N: 1}, Bits: 4, Trace: true, Seed: 9,
		},
		SampleInterval: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Injected() {
		t.Fatal("no injection")
	}
	// The corrupted sum is stored to the stack slot each iteration: tainted
	// writes and reads must appear.
	if res.Trace.TotalWrites() == 0 {
		t.Error("no tainted writes traced")
	}
	if res.Trace.TotalReads() == 0 {
		t.Error("no tainted reads traced")
	}
	evs := res.Trace.Events()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	for _, ev := range evs {
		if ev.Mask == 0 || ev.EIP == 0 {
			t.Errorf("bad event %+v", ev)
		}
	}
	if len(res.Trace.Timeline()) == 0 {
		t.Error("no timeline samples")
	}
}

func TestInjectFaultTerminalCommand(t *testing.T) {
	platform := decaf.NewPlatform()
	ch := New(Options{})
	if err := platform.LoadPlugin(ch); err != nil {
		t.Fatal(err)
	}
	out, err := platform.Exec("inject_fault fp_app fadd,fmul det 100 2 trace rank=0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "armed") {
		t.Errorf("out = %q", out)
	}
	spec := ch.Spec()
	if spec == nil {
		t.Fatal("no spec armed")
	}
	if spec.Target != "fp_app" || len(spec.Ops) != 2 || spec.Bits != 2 ||
		!spec.Trace || spec.TargetRank != 0 {
		t.Errorf("spec = %+v", spec)
	}
	if d, ok := spec.Cond.(Deterministic); !ok || d.N != 100 {
		t.Errorf("cond = %+v", spec.Cond)
	}
}

func TestInjectFaultCommandErrors(t *testing.T) {
	platform := decaf.NewPlatform()
	ch := New(Options{})
	if err := platform.LoadPlugin(ch); err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"inject_fault",
		"inject_fault app",
		"inject_fault app bogusop det 1 1",
		"inject_fault app fadd det 0 1",
		"inject_fault app fadd prob 2.0 1",
		"inject_fault app fadd nosuch 1 1",
		"inject_fault app fadd group 5 1",
		"inject_fault app fadd det 5 99",
		"inject_fault app fadd det 5 1 wat",
		"inject_fault app fadd det 5 1 rank=x",
		"inject_fault app fadd det 5",
	}
	for _, cmd := range bad {
		if _, err := platform.Exec(cmd); err == nil {
			t.Errorf("command %q accepted", cmd)
		}
	}
	// Valid prob and group forms are accepted.
	for _, cmd := range []string{
		"inject_fault app fadd prob 0.001 1",
		"inject_fault app fadd group 10:5 1",
	} {
		if _, err := platform.Exec(cmd); err != nil {
			t.Errorf("command %q rejected: %v", cmd, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("Run without program succeeded")
	}
}

func TestRegisterFileInjector(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	prog, err := asm.Assemble("t", "main:\n movi r1, 64\n syscall alloc\n hlt\n")
	if err != nil {
		t.Fatal(err)
	}
	files := []struct {
		file RegisterFile
		gpr  bool
		fpr  bool
	}{{GPRFile, true, false}, {FPRFile, false, true}, {BothFiles, true, true}}
	for _, tt := range files {
		sawGPR, sawFPR := false, false
		for trial := 0; trial < 40; trial++ {
			m := vm.New(prog, vm.Config{})
			ctx := &Context{
				Machine: m,
				Op:      &tcg.Op{GuestPC: isa.CodeBase, GuestOp: isa.OpMovI},
				Instr:   isa.Instr{Op: isa.OpMovI},
				Rng:     rng,
			}
			rec, err := RegisterFileInjector{Bits: 2, File: tt.file}.Inject(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if popcount(rec.Mask) != 2 {
				t.Errorf("mask popcount = %d", popcount(rec.Mask))
			}
			if rec.Before^rec.After != rec.Mask {
				t.Error("record inconsistent")
			}
			if strings.Contains(rec.Target, "regfile f") {
				sawFPR = true
			} else if strings.Contains(rec.Target, "regfile r") {
				sawGPR = true
			}
		}
		if sawGPR != tt.gpr && tt.gpr {
			t.Errorf("file %v never hit a GPR", tt.file)
		}
		if sawFPR != tt.fpr && tt.fpr {
			t.Errorf("file %v never hit an FPR", tt.file)
		}
		if !tt.gpr && sawGPR {
			t.Errorf("file %v hit a GPR", tt.file)
		}
		if !tt.fpr && sawFPR {
			t.Errorf("file %v hit an FPR", tt.file)
		}
	}
}

func TestRegisterFileInjectorEndToEnd(t *testing.T) {
	res, err := Run(RunConfig{
		Prog: fpProg(t),
		Spec: &Spec{
			Target: "fp_app", Ops: []isa.Op{isa.OpFAdd},
			Cond: Deterministic{N: 2},
			Inj:  RegisterFileInjector{Bits: 1, File: FPRFile},
			Seed: 21, Trace: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("records = %d", len(res.Records))
	}
	if !strings.HasPrefix(res.Records[0].Target, "regfile f") {
		t.Errorf("target = %q", res.Records[0].Target)
	}
}

func TestChaserStatusCommand(t *testing.T) {
	platform := decaf.NewPlatform()
	ch := New(Options{})
	if err := platform.LoadPlugin(ch); err != nil {
		t.Fatal(err)
	}
	out, err := platform.Exec("chaser_status")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "not armed") {
		t.Errorf("unarmed status = %q", out)
	}
	if _, err := platform.Exec("inject_fault fp_app fadd det 2 1 trace"); err != nil {
		t.Fatal(err)
	}
	out, err = platform.Exec("chaser_status")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"target=fp_app", "injections: 0", "tainthub:"} {
		if !strings.Contains(out, want) {
			t.Errorf("status missing %q:\n%s", want, out)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := &Spec{Target: "app", Ops: []isa.Op{isa.OpFAdd}, Bits: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []*Spec{
		{Ops: []isa.Op{isa.OpFAdd}},                                           // no target
		{Target: "app"},                                                       // no ops
		{Target: "app", Ops: []isa.Op{isa.Op(200)}},                           // invalid op
		{Target: "app", Ops: []isa.Op{isa.OpFAdd}, Bits: 99},                  // bits
		{Target: "app", Ops: []isa.Op{isa.OpFAdd}, MaxInjections: -1},         // negative
		{Target: "app", Ops: []isa.Op{isa.OpFAdd}, Cond: Probabilistic{P: 2}}, // bad p
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	// Run rejects invalid specs up front.
	if _, err := Run(RunConfig{Prog: fpProg(t), Spec: &Spec{Target: "x"}}); err == nil {
		t.Error("Run accepted an invalid spec")
	}
}

func TestTranslationFlushMidRun(t *testing.T) {
	// A helper that flushes the translation cache mid-run must not break
	// execution: the currently executing block stays valid and subsequent
	// blocks retranslate.
	prog, err := asm.Assemble("t", `
main:
    movi r1, 0
    movi r2, 20
loop:
    add r1, r1, r2
    addi r2, r2, -1
    cmpi r2, 0
    jg loop
    hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog, vm.Config{})
	flushes := 0
	id := m.RegisterHelper(func(mm *vm.Machine, op *tcg.Op) {
		flushes++
		mm.Trans.Flush()
	})
	m.Trans.AddHook(func(ins isa.Instr, pc uint64) []tcg.Op {
		if ins.Op == isa.OpAdd {
			return []tcg.Op{{Kind: tcg.KHelper, Helper: id}}
		}
		return nil
	})
	term := m.Run()
	if term.Reason != vm.ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if flushes != 20 {
		t.Errorf("flushes = %d, want 20", flushes)
	}
	// Sum 20+19+...+1 = 210.
	if got := m.GPR(isa.R1); got != 210 {
		t.Errorf("sum = %d, want 210", got)
	}
}

// TestDetachFlushesInstrumentation is fi_clean_cb (Fig. 4): once the last
// fault of a spec has fired, the injector detaches and flushes the
// instrumented translations, so no later block carries its helper. Specs that
// still have faults to deliver — a second injection pending, the group model
// that never runs out — keep every targeted block instrumented.
func TestDetachFlushesInstrumentation(t *testing.T) {
	prog, err := asm.Assemble("t", `
main:
    movi r1, 0
    movi r2, 20
loop:
    add r1, r1, r2
    addi r2, r2, -1
    cmpi r2, 0
    jg loop
    hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	// helperOpsAfterFirstFault single-steps a run of spec and counts the
	// helper micro-ops in every block executed after the block that delivered
	// the first fault.
	helperOpsAfterFirstFault := func(spec *Spec) (after int, records int) {
		t.Helper()
		platform := decaf.NewPlatform()
		ch := New(Options{})
		if err := platform.LoadPlugin(ch); err != nil {
			t.Fatal(err)
		}
		ch.Arm(spec)
		m := vm.New(prog, vm.Config{})
		platform.CreateProcess(m)
		for m.Terminated() == nil {
			fired := len(ch.Records()) > 0
			tb, err := m.Trans.Block(m.PC())
			if err != nil {
				t.Fatal(err)
			}
			if fired {
				for _, op := range tb.Ops {
					if op.Kind == tcg.KHelper {
						after++
					}
				}
			}
			m.Step()
		}
		if term := m.Terminated(); term.Reason != vm.ReasonExited {
			t.Fatalf("term = %v", term)
		}
		// The identity injector leaves values alone: 20+19+...+1.
		if got := m.GPR(isa.R1); got != 210 {
			t.Fatalf("sum = %d, want 210", got)
		}
		return after, len(ch.Records())
	}
	spec := func(cond Condition, maxInj int) *Spec {
		return &Spec{
			Target: "t", Ops: []isa.Op{isa.OpAdd}, Cond: cond,
			Inj: IdentityInjector{Bits: 1}, MaxInjections: maxInj, Seed: 3,
		}
	}
	for _, tc := range []struct {
		name      string
		spec      *Spec
		wantAfter int
		wantRecs  int
	}{
		// The fault fires in iteration 5; iterations 6-20 run clean blocks.
		{"single fault", spec(Deterministic{N: 5}, 1), 0, 1},
		// Faults in iterations 1, 2 and 3: the two blocks after the first
		// still screen, then the injector detaches.
		{"three faults", spec(Group{Start: 1, Every: 1}, 3), 2, 3},
		// The group model never detaches: all 19 later iterations screen.
		{"group", spec(Group{Start: 1, Every: 1}, 1<<30), 19, 20},
	} {
		after, recs := helperOpsAfterFirstFault(tc.spec)
		if after != tc.wantAfter || recs != tc.wantRecs {
			t.Errorf("%s: %d helper ops after the first fault, %d faults; want %d and %d",
				tc.name, after, recs, tc.wantAfter, tc.wantRecs)
		}
	}
}

// TestDetachLeavesForeignHooks: fi_clean_cb disarms the injector's own probe
// and nothing else. A hook somebody else placed on the machine's translator
// keeps instrumenting after the last fault has fired.
func TestDetachLeavesForeignHooks(t *testing.T) {
	prog, err := asm.Assemble("t", `
main:
    movi r1, 0
    movi r2, 20
loop:
    add r1, r1, r2
    addi r2, r2, -1
    cmpi r2, 0
    jg loop
    hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	platform := decaf.NewPlatform()
	ch := New(Options{})
	if err := platform.LoadPlugin(ch); err != nil {
		t.Fatal(err)
	}
	ch.Arm(&Spec{
		Target: "t", Ops: []isa.Op{isa.OpAdd}, Cond: Deterministic{N: 5},
		Inj: IdentityInjector{Bits: 1}, MaxInjections: 1, Seed: 3,
	})
	m := vm.New(prog, vm.Config{})
	foreign := 0
	id := m.RegisterHelper(func(*vm.Machine, *tcg.Op) { foreign++ })
	m.Trans.AddHook(func(ins isa.Instr, _ uint64) []tcg.Op {
		if ins.Op == isa.OpAddI {
			return []tcg.Op{{Kind: tcg.KHelper, Helper: id}}
		}
		return nil
	})
	platform.CreateProcess(m)
	if term := m.Run(); term.Reason != vm.ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if got := len(ch.Records()); got != 1 {
		t.Fatalf("%d faults delivered, want 1", got)
	}
	// One addi an iteration, 15 of them after the injector detached.
	if foreign != 20 {
		t.Errorf("foreign hook ran %d times, want 20: detach removed it", foreign)
	}
}

func TestRegionAwareTraceEvents(t *testing.T) {
	res, err := Run(RunConfig{
		Prog: fpProg(t),
		Spec: &Spec{
			Target: "fp_app", Ops: []isa.Op{isa.OpFAdd},
			Cond: Deterministic{N: 1}, Bits: 4, Trace: true, Seed: 9,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	regions := res.Trace.Regions()
	if len(regions) == 0 {
		t.Fatal("no region counts recorded")
	}
	// fp_app keeps its accumulator in a stack slot.
	if rc, ok := regions["stack"]; !ok || rc.Reads+rc.Writes == 0 {
		t.Errorf("regions = %+v, want stack activity", regions)
	}
	for _, ev := range res.Trace.Events() {
		if ev.Region == "" {
			t.Errorf("event without region: %+v", ev)
		}
	}
}

func TestTargetAllRanksInstrumentation(t *testing.T) {
	// TargetRank -1 instruments every rank; the Group condition then fires
	// on each rank independently (seeded per rank).
	I, V, B := lang.I, lang.V, lang.Block
	prog, err := lang.Compile(&lang.Program{Name: "all_ranks", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("s", lang.F(0)),
			lang.For{Var: "i", From: I(0), To: I(3), Body: B(
				lang.Set("s", lang.Add(V("s"), lang.F(1))),
			)},
			lang.OutFloat{E: V("s")},
		),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Prog:      prog,
		WorldSize: 3,
		Spec: &Spec{
			Target: "all_ranks", Ops: []isa.Op{isa.OpFAdd},
			TargetRank: -1,
			Cond:       Deterministic{N: 2},
			Inj:        IdentityInjector{Bits: 1},
			Seed:       5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ranksHit := map[int]bool{}
	for _, rec := range res.Records {
		ranksHit[rec.Rank] = true
	}
	if len(ranksHit) != 3 {
		t.Errorf("injections on %d ranks, want all 3: %v", len(ranksHit), res.Records)
	}
}
