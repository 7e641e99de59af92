package core

import (
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/asm"
	"chaser/internal/isa"
	"chaser/internal/memtest"
	"chaser/internal/tcg"
	"chaser/internal/vm"
)

// TestTracedRunAllocBudget is the propagation log's allocation guard, the
// traced twin of the vm's TestFastPathNoAlloc: the bytes a traced clamr_mpi
// run allocates beyond the same run untraced, per access it logs, stay under
// logBytesPerAccess. A packed record is 56 bytes and a log grows by whole
// 256-record chunks, never by copying; the rest of the allowance is what
// tracing allocates besides the log (hub payloads, and the shadow pages the
// free list does not catch — about 10 bytes per access on this guest; 48
// when every dropped page was allocated again). A log of 88-byte events in
// one slice grown by doubling from nil measured 512.
func TestTracedRunAllocBudget(t *testing.T) {
	const logBytesPerAccess = 80
	app, err := apps.ByName("clamr_mpi")
	if err != nil {
		t.Fatal(err)
	}
	cache := tcg.NewBaseCache(app.Prog)
	allocated := func(traced bool) (bytes, accesses uint64) {
		t.Helper()
		cfg := RunConfig{
			Prog: app.Prog, WorldSize: app.WorldSize, BaseCache: cache,
			Spec: &Spec{
				Target: app.Name, Ops: app.DefaultOps, TargetRank: 0,
				Cond: Deterministic{N: 1000}, Inj: IdentityInjector{Bits: 8}, Seed: 3, Trace: traced,
			},
		}
		var res *RunResult
		var err error
		bytes = memtest.Allocated(func() { res, err = Run(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		return bytes, res.Trace.TotalReads() + res.Trace.TotalWrites()
	}
	allocated(true) // fill the translation cache
	best := ^uint64(0)
	var accesses uint64
	for i := 0; i < 3; i++ {
		traced, n := allocated(true)
		untraced, _ := allocated(false)
		if n < 10_000 {
			t.Fatalf("the run logged %d accesses; the guard needs a log worth measuring", n)
		}
		if traced > untraced {
			best, accesses = min(best, (traced-untraced)/n), n
		}
	}
	t.Logf("tracing allocates %d bytes per logged access (%d accesses)", best, accesses)
	if best > logBytesPerAccess {
		t.Errorf("tracing allocates %d bytes per logged access (%d accesses), budget %d", best, accesses, logBytesPerAccess)
	}
}

// BenchmarkTaintedAccess prices the emission path: what one tainted load or
// store costs between the interpreter's memTaintEvent and the record in the
// propagation log, chunk growth included. A guest loop of one tainted load
// and one tainted store runs with Chaser's callbacks attached, as in a
// traced run, and again with none; the difference per logged access is
// reported as ns/access.
func BenchmarkTaintedAccess(b *testing.B) {
	const iters = 4096 // 8,192 accesses a run, under the log's cap
	prog, err := asm.Assemble("access", `
main:
    movi r3, 4096
loop:
    ld r2, [r1+0]
    st [r1+8], r2
    addi r3, r3, -1
    cmpi r3, 0
    jg loop
    hlt
`)
	if err != nil {
		b.Fatal(err)
	}
	cache := tcg.NewBaseCache(prog)
	run := func(hooked bool) (time.Duration, uint64) {
		m := vm.New(prog, vm.Config{BaseCache: cache})
		m.TaintEnabled = true
		addr := uint64(isa.StackTop - 256)
		m.SetGPR(isa.R1, addr)
		m.Shadow.SetMemMask64(addr, 0xff)
		ch := New(Options{})
		if hooked {
			ch.attach(m)
		}
		start := time.Now()
		if term := m.Run(); term.Reason != vm.ReasonExited {
			b.Fatal(term)
		}
		took := time.Since(start)
		return took, ch.Trace().TotalReads() + ch.Trace().TotalWrites()
	}
	run(true)
	var hooked, bare time.Duration
	var accesses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, n := run(true)
		u, _ := run(false)
		hooked, bare, accesses = hooked+h, bare+u, accesses+n
	}
	if accesses != uint64(b.N)*2*iters {
		b.Fatalf("%d accesses logged, want %d", accesses, b.N*2*iters)
	}
	b.ReportMetric(float64(hooked-bare)/float64(accesses), "ns/access")
}
