// Differential proof of the dual-loop engine at system level: every example
// guest program, run end-to-end through the full Chaser stack, must produce
// identical observable results whether blocks execute on the taint-free fast
// loop (default) or are forced through the full taint-aware loop
// (NoFastPath). Three scenarios per program bracket the fast path's
// activation range: no spec at all (taint off, fast loop only), tracing armed
// but the fault never firing (taint on, shadow empty — still fast), and a
// mid-run injection (fast until the fault lands, full after).
package chaser

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/core"
	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/vm"
)

type guestCase struct {
	file      string
	worldSize int
	ops       []isa.Op
	// injectN is the dynamic occurrence of a targeted op the mid-run
	// scenario injects at, chosen so the fault's taint survives past the
	// injection block (for ring it also crosses ranks through the hub,
	// pulling every rank off the fast path).
	injectN uint64
}

var guestCases = []guestCase{
	{"pi.gl", 1, []isa.Op{isa.OpFAdd, isa.OpFDiv}, 40},
	{"ring.gl", 4, []isa.Op{isa.OpLd, isa.OpSt}, 30},
}

func loadGuest(t *testing.T, file string) *isa.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("examples", "guest_programs", file))
	if err != nil {
		t.Fatal(err)
	}
	name := strings.TrimSuffix(file, ".gl")
	prog, err := lang.ParseAndCompile(name, string(src))
	if err != nil {
		t.Fatalf("compile %s: %v", file, err)
	}
	return prog
}

// comparable projects a RunResult onto its deterministic, loop-independent
// observables. FastPathTBs is removed — it is the one counter defined to
// differ between the two modes. Trace events are reduced to per-rank totals:
// cross-rank collection order depends on goroutine scheduling, the per-rank
// counts do not.
func comparable(res *core.RunResult, worldSize int) map[string]any {
	counters := make([]vm.Counters, len(res.Counters))
	copy(counters, res.Counters)
	for i := range counters {
		counters[i].FastPathTBs = 0
	}
	out := map[string]any{
		"terms":    res.Terms,
		"outputs":  res.Outputs,
		"consoles": res.Consoles,
		"counters": counters,
		"records":  res.Records,
	}
	if res.Trace != nil {
		reads := make([]uint64, worldSize)
		writes := make([]uint64, worldSize)
		for r := 0; r < worldSize; r++ {
			reads[r] = res.Trace.Reads(r)
			writes[r] = res.Trace.Writes(r)
		}
		out["trace_reads"] = reads
		out["trace_writes"] = writes
		out["trace_events"] = len(res.Trace.Events())
		out["trace_propagated"] = res.Trace.Propagated()
	}
	return out
}

func TestFastFullDifferentialGuestPrograms(t *testing.T) {
	scenarios := []struct {
		name string
		spec func(gc guestCase, target string) *core.Spec
	}{
		{"no-spec", func(gc guestCase, target string) *core.Spec {
			return nil
		}},
		{"trace-never-fires", func(gc guestCase, target string) *core.Spec {
			return &core.Spec{
				Target: target, Ops: gc.ops, TargetRank: 0,
				Cond: core.Deterministic{N: 1 << 62},
				Bits: 1, Seed: 11, Trace: true,
			}
		}},
		{"mid-run-injection", func(gc guestCase, target string) *core.Spec {
			return &core.Spec{
				Target: target, Ops: gc.ops, TargetRank: 0,
				Cond: core.Deterministic{N: gc.injectN},
				Bits: 2, Seed: 11, Trace: true,
			}
		}},
	}
	for _, gc := range guestCases {
		prog := loadGuest(t, gc.file)
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/%s", gc.file, sc.name), func(t *testing.T) {
				runMode := func(noFast bool) *core.RunResult {
					res, err := core.Run(core.RunConfig{
						Prog:       prog,
						WorldSize:  gc.worldSize,
						Spec:       sc.spec(gc, prog.Name),
						NoFastPath: noFast,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				fast := runMode(false)
				full := runMode(true)

				var fastTBs, totalTBs uint64
				for _, c := range fast.Counters {
					fastTBs += c.FastPathTBs
					totalTBs += c.TBsExecuted
				}
				if fastTBs == 0 {
					t.Fatal("default mode never took the fast path; differential is vacuous")
				}
				if sc.name == "mid-run-injection" {
					if !fast.Injected() {
						t.Fatal("mid-run scenario injected nothing")
					}
					if fastTBs >= totalTBs {
						t.Error("injection run never handed off to the full loop")
					}
				}
				for _, c := range full.Counters {
					if c.FastPathTBs != 0 {
						t.Fatalf("NoFastPath run counted %d fast-path TBs", c.FastPathTBs)
					}
				}
				a, b := comparable(fast, gc.worldSize), comparable(full, gc.worldSize)
				if !reflect.DeepEqual(a, b) {
					for k := range a {
						if !reflect.DeepEqual(a[k], b[k]) {
							t.Errorf("%s diverged:\nfast: %+v\nfull: %+v", k, a[k], b[k])
						}
					}
				}
			})
		}
	}
}

// TestPostFaultTwins is the differential at the propagation log's level of
// detail, on the two runs the repository benchmark prices tracing with: a
// traced LUD injection (`chaser -app lud -n 14000 -seed 7 -trace`) and the
// 4-rank CLAMR identity fault (`-app clamr_mpi -n 1000`, eight identity
// bits). Almost every block of either runs on the taint-aware loop — entered
// from the fast loop mid-block at the fault, chained from then on — and the
// NoFastPath twin runs it from program entry. What a user sees must agree:
// terminations, outputs, counters, injection records, every rank's event
// stream record for record, and for the serial guest the log file byte for
// byte.
func TestPostFaultTwins(t *testing.T) {
	for _, tc := range []struct {
		app      string
		n        uint64
		seed     int64
		identity bool
	}{
		{"lud", 14000, 7, false},
		{"clamr_mpi", 1000, 5, true},
	} {
		t.Run(tc.app, func(t *testing.T) {
			app, err := apps.ByName(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			spec := &core.Spec{
				Target: app.Name, Ops: app.DefaultOps, TargetRank: max(app.TargetRank, 0),
				Cond: core.Deterministic{N: tc.n}, Bits: 1, Seed: tc.seed, Trace: true, MaxInjections: 1,
			}
			if tc.identity {
				spec.Inj = core.IdentityInjector{Bits: 8}
			}
			run := func(noFast bool) (*core.RunResult, []byte) {
				res, err := core.Run(core.RunConfig{Prog: app.Prog, WorldSize: app.WorldSize, Spec: spec, NoFastPath: noFast})
				if err != nil {
					t.Fatal(err)
				}
				var log bytes.Buffer
				if _, err := res.Trace.WriteTo(&log); err != nil {
					t.Fatal(err)
				}
				return res, log.Bytes()
			}
			def, defLog := run(false)
			twin, twinLog := run(true)
			if !def.Injected() || def.Trace.Stored() < 10_000 {
				t.Fatalf("injected=%v, %d events stored: the twins have too little to disagree about", def.Injected(), def.Trace.Stored())
			}
			if a, b := comparable(def, app.WorldSize), comparable(twin, app.WorldSize); !reflect.DeepEqual(a, b) {
				t.Errorf("results diverged:\ndefault:    %+v\nNoFastPath: %+v", a, b)
			}
			if !reflect.DeepEqual(def.Trace.Events(), twin.Trace.Events()) {
				t.Error("the ranks' event streams differ")
			}
			if app.WorldSize == 1 && !bytes.Equal(defLog, twinLog) {
				t.Error("the propagation logs differ")
			}
		})
	}
}
