// Benchmarks regenerating the paper's tables and figures (one benchmark per
// table/figure, reporting the relevant quantities as custom metrics), plus
// ablation benchmarks for the design choices called out in DESIGN.md:
// just-in-time instrumentation vs. instrument-everything, and elastic taint
// on/off.
//
//	go test -bench=. -benchmem
//
// The campaign benchmarks use small run counts per iteration so the suite
// stays fast; cmd/campaign regenerates the same numbers at paper scale.
package chaser

import (
	"math/rand"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/campaign"
	"chaser/internal/core"
	"chaser/internal/injectors"
	"chaser/internal/isa"
	"chaser/internal/obs"
	"chaser/internal/tcg"
	"chaser/internal/vm"
)

func mustApp(b *testing.B, name string) apps.App {
	b.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return app
}

// BenchmarkTable1_FaultModels measures the per-execution cost of the three
// fault-model conditions — the code on Chaser's hot instrumentation path.
func BenchmarkTable1_FaultModels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	models := []struct {
		name string
		cond core.Condition
	}{
		{"Probabilistic", core.Probabilistic{P: 0.0001}},
		{"Deterministic", core.Deterministic{N: 1 << 40}},
		{"Group", core.Group{Start: 1000, Every: 100}},
	}
	for _, m := range models {
		b.Run(m.name, func(b *testing.B) {
			fired := 0
			for i := 0; i < b.N; i++ {
				if m.cond.ShouldInject(uint64(i+1), rng) {
					fired++
				}
			}
			_ = fired
		})
	}
}

// BenchmarkTable2_InjectorLOC reports the measured lines of code of the
// three Table II injectors.
func BenchmarkTable2_InjectorLOC(b *testing.B) {
	var rows []injectors.LOC
	for i := 0; i < b.N; i++ {
		rows = injectors.Table2()
	}
	for _, row := range rows {
		b.ReportMetric(float64(row.Raw), row.Name[:5]+"_loc")
	}
}

// BenchmarkTable3_MatvecTermination runs a small traced Matvec campaign per
// iteration and reports the termination-class percentages.
func BenchmarkTable3_MatvecTermination(b *testing.B) {
	app := mustApp(b, "matvec")
	var sum *campaign.Summary
	for i := 0; i < b.N; i++ {
		var err error
		sum, err = campaign.Run(campaign.Config{
			Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
			Ops: app.DefaultOps, TargetRank: app.TargetRank,
			Runs: 40, Bits: 1, Seed: int64(i), Trace: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if sum.Terminated > 0 {
		b.ReportMetric(100*float64(sum.TermOS)/float64(sum.Terminated), "os_pct")
		b.ReportMetric(100*float64(sum.TermMPI+sum.TermHang)/float64(sum.Terminated), "mpi_pct")
		b.ReportMetric(100*float64(sum.TermSlave)/float64(sum.Terminated), "slave_pct")
	}
}

// BenchmarkFig6_Outcomes runs a small outcome campaign per application and
// reports the benign/SDC/terminated percentages.
func BenchmarkFig6_Outcomes(b *testing.B) {
	for _, name := range apps.Names() {
		app := mustApp(b, name)
		b.Run(name, func(b *testing.B) {
			var sum *campaign.Summary
			for i := 0; i < b.N; i++ {
				var err error
				sum, err = campaign.Run(campaign.Config{
					Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
					Ops: app.DefaultOps, TargetRank: app.TargetRank,
					Runs: 30, Bits: 1, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			inj := float64(sum.Injected)
			b.ReportMetric(100*float64(sum.Benign)/inj, "benign_pct")
			b.ReportMetric(100*float64(sum.SDC)/inj, "sdc_pct")
			b.ReportMetric(100*float64(sum.Detected)/inj, "detected_pct")
			b.ReportMetric(100*float64(sum.Terminated)/inj, "terminated_pct")
		})
	}
}

// BenchmarkFig7_TaintTimeline measures one traced CLAMR injection run with
// tainted-byte sampling and reports the final tainted-byte count.
func BenchmarkFig7_TaintTimeline(b *testing.B) {
	app := mustApp(b, "clamr")
	var last int64
	for i := 0; i < b.N; i++ {
		points, _, err := campaign.Timeline(campaign.TimelineConfig{
			Prog: app.Prog, WorldSize: 1, Ops: app.DefaultOps,
			N: 300, Bits: 1, Seed: 2, SampleInterval: 10_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) > 0 {
			last = points[len(points)-1].TaintedBytes
		}
	}
	b.ReportMetric(float64(last), "final_tainted_bytes")
}

// BenchmarkFig8Fig9_TaintedMemOps runs a traced CLAMR campaign and reports
// the mean tainted reads and writes per run (the Figs. 8/9 distributions).
func BenchmarkFig8Fig9_TaintedMemOps(b *testing.B) {
	app := mustApp(b, "clamr")
	var sum *campaign.Summary
	for i := 0; i < b.N; i++ {
		var err error
		sum, err = campaign.Run(campaign.Config{
			Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
			Ops: app.DefaultOps, TargetRank: 0,
			Runs: 25, Bits: 1, Seed: int64(i), Trace: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sum.ReadsHist.Mean(), "mean_tainted_reads")
	b.ReportMetric(sum.WritesHist.Mean(), "mean_tainted_writes")
	b.ReportMetric(sum.ReadsHist.Max(), "max_tainted_reads")
	b.ReportMetric(sum.WritesHist.Max(), "max_tainted_writes")
}

// BenchmarkFig10_Overhead times the four Fig. 10 configurations for Matvec
// and CLAMR. The b.N loop runs complete supervised executions; the reported
// ns/op of the sub-benchmarks are the Fig. 10 bars.
func BenchmarkFig10_Overhead(b *testing.B) {
	for _, name := range []string{"matvec", "clamr"} {
		app := mustApp(b, name)
		rank := app.TargetRank
		if rank < 0 {
			rank = 0
		}
		mkSpec := func(inject, traceOn bool) *core.Spec {
			if !inject && !traceOn {
				return nil
			}
			cond := core.Condition(core.Deterministic{N: 1000})
			if !inject {
				cond = core.Deterministic{N: 1 << 62}
			}
			return &core.Spec{
				Target: app.Name, Ops: app.DefaultOps, TargetRank: rank,
				Cond: cond, Inj: core.IdentityInjector{Bits: 8}, Seed: 3,
				Trace: traceOn,
			}
		}
		cases := []struct {
			cfg     string
			inject  bool
			traceOn bool
		}{
			{"baseline", false, false},
			{"inject", true, false},
			{"trace", false, true},
			{"inject+trace", true, true},
		}
		for _, c := range cases {
			b.Run(name+"/"+c.cfg, func(b *testing.B) {
				spec := mkSpec(c.inject, c.traceOn)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := core.Run(core.RunConfig{
						Prog: app.Prog, WorldSize: app.WorldSize, Spec: spec,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Terms[0].Abnormal() {
						b.Fatalf("abnormal: %v", res.Terms[0])
					}
				}
			})
		}
	}
}

// BenchmarkObsOverhead is the telemetry ablation: the same kmeans guest run
// with telemetry disabled (nil registry — the default for every existing
// call site) and enabled. Because the vm flushes its counters into the
// registry once at run end rather than instrumenting the interpreter loop,
// the two configurations should be within noise of each other, and the
// disabled path must not add a single allocation per run beyond the
// uninstrumented baseline.
func BenchmarkObsOverhead(b *testing.B) {
	app := mustApp(b, "kmeans")
	for _, enabled := range []bool{false, true} {
		name := "obs-off"
		if enabled {
			name = "obs-on"
		}
		b.Run(name, func(b *testing.B) {
			var reg *obs.Registry
			if enabled {
				reg = obs.NewRegistry()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := vm.New(app.Prog, vm.Config{Obs: reg})
				if term := m.Run(); term.Abnormal() {
					b.Fatal(term)
				}
			}
			if enabled && reg.Counter("vm_instructions_total").Value() == 0 {
				b.Fatal("enabled telemetry recorded nothing")
			}
		})
	}
}

// TestObsDisabledNoAlloc guards the zero-cost claim: the telemetry seams in
// the engine add no allocations when disabled. The guest itself allocates
// (translation cache, shadow pages), and those allocations are deterministic
// for a fixed program, so the test measures the whole-run delta between
// telemetry enabled and disabled — flush-at-end design means even the
// enabled path should add almost nothing, and the disabled path exactly
// nothing. (The per-op zero-allocation guarantee of nil instruments is
// pinned separately in internal/obs.)
func TestObsDisabledNoAlloc(t *testing.T) {
	app, err := apps.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	measure := func(reg *obs.Registry) float64 {
		return testing.AllocsPerRun(5, func() {
			m := vm.New(app.Prog, vm.Config{Obs: reg})
			if term := m.Run(); term.Abnormal() {
				t.Fatal(term)
			}
		})
	}
	disabled := measure(nil)
	reg := obs.NewRegistry() // instruments created during the warm-up call
	enabled := measure(reg)
	if delta := enabled - disabled; delta > 8 {
		t.Errorf("telemetry adds %.0f allocs/run (disabled %.0f, enabled %.0f); flush-at-end should add ~0", delta, disabled, enabled)
	}
}

// BenchmarkAblation_Instrumentation compares the paper's JIT-style targeted
// instrumentation (helper calls inserted only in front of targeted
// instructions at translation time) with the F-SEFI-style alternative of
// instrumenting every instruction and checking the target dynamically.
// The gap is the paper's "efficient" design goal, quantified.
func BenchmarkAblation_Instrumentation(b *testing.B) {
	app := mustApp(b, "kmeans")
	target := isa.OpFAdd

	run := func(b *testing.B, hook func(m *vm.Machine) tcg.InstrumentHook) {
		for i := 0; i < b.N; i++ {
			m := vm.New(app.Prog, vm.Config{})
			if hook != nil {
				m.Trans.AddHook(hook(m))
			}
			if term := m.Run(); term.Abnormal() {
				b.Fatalf("abnormal: %v", term)
			}
		}
	}

	b.Run("uninstrumented", func(b *testing.B) { run(b, nil) })

	b.Run("jit-targeted", func(b *testing.B) {
		run(b, func(m *vm.Machine) tcg.InstrumentHook {
			var execs uint64
			id := m.RegisterHelper(func(mm *vm.Machine, op *tcg.Op) { execs++ })
			return func(ins isa.Instr, pc uint64) []tcg.Op {
				if ins.Op != target {
					return nil
				}
				return []tcg.Op{{Kind: tcg.KHelper, Helper: id}}
			}
		})
	})

	b.Run("instrument-all", func(b *testing.B) {
		run(b, func(m *vm.Machine) tcg.InstrumentHook {
			var execs uint64
			id := m.RegisterHelper(func(mm *vm.Machine, op *tcg.Op) {
				// The dynamic check every injector without JIT placement
				// must perform on every single instruction.
				if op.GuestOp == target {
					execs++
				}
			})
			return func(ins isa.Instr, pc uint64) []tcg.Op {
				return []tcg.Op{{Kind: tcg.KHelper, Helper: id}}
			}
		})
	})
}

// BenchmarkAblation_ElasticTaint measures the raw engine cost of taint
// tracking (DECAF++-style elastic analysis: pay only when tracing).
func BenchmarkAblation_ElasticTaint(b *testing.B) {
	app := mustApp(b, "lud")
	for _, taintOn := range []bool{false, true} {
		name := "taint-off"
		if taintOn {
			name = "taint-on"
		}
		b.Run(name, func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				m := vm.New(app.Prog, vm.Config{})
				m.TaintEnabled = taintOn
				if term := m.Run(); term.Abnormal() {
					b.Fatal(term)
				}
				instrs = m.Counters().Instructions
			}
			b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}
