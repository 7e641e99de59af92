package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"chaser/internal/isa"
	"chaser/internal/vm"
)

// normalizeCounters zeroes the translation-block cache statistics, the one
// part of Counters outside the fork bitwise contract: a forked run starts
// with a cold chain table and splits the fork-point block, so block counts
// differ while instruction-level state is identical. None of them feed
// outcome classification.
func normalizeCounters(cs []vm.Counters) []vm.Counters {
	out := append([]vm.Counters(nil), cs...)
	for i := range out {
		out[i].TBsExecuted = 0
		out[i].ChainedTBs = 0
		out[i].FastPathTBs = 0
	}
	return out
}

// traceSummary collapses a propagation trace to the aggregates
// classification and reporting consume, so that a divergence reads as counts;
// compareRuns goes on to compare the propagation logs byte for byte.
type traceSummary struct {
	Reads, Writes uint64
	CrossRank     int
	Sends         int
	Outputs       int
	Propagated    bool
	Samples       int
}

func summarize(r *RunResult) traceSummary {
	return traceSummary{
		Reads:      r.Trace.TotalReads(),
		Writes:     r.Trace.TotalWrites(),
		CrossRank:  len(r.Trace.CrossRank()),
		Sends:      len(r.Trace.Sends()),
		Outputs:    len(r.Trace.Outputs()),
		Propagated: r.Trace.Propagated(),
		Samples:    len(r.Trace.Timeline()),
	}
}

func compareRuns(t *testing.T, label string, scratch, forked *RunResult) {
	t.Helper()
	if !reflect.DeepEqual(scratch.Terms, forked.Terms) {
		t.Errorf("%s: terms differ:\n scratch %v\n forked  %v", label, scratch.Terms, forked.Terms)
	}
	if !reflect.DeepEqual(scratch.Outputs, forked.Outputs) {
		t.Errorf("%s: outputs differ", label)
	}
	if !reflect.DeepEqual(scratch.Consoles, forked.Consoles) {
		t.Errorf("%s: consoles differ", label)
	}
	if !reflect.DeepEqual(scratch.Records, forked.Records) {
		t.Errorf("%s: injection records differ:\n scratch %v\n forked  %v",
			label, scratch.Records, forked.Records)
	}
	sc := normalizeCounters(scratch.Counters)
	fc := normalizeCounters(forked.Counters)
	if !reflect.DeepEqual(sc, fc) {
		for r := range sc {
			if sc[r] != fc[r] {
				t.Errorf("%s: rank %d counters differ:\n scratch instrs=%d sys=%d taintR=%d taintW=%d\n forked  instrs=%d sys=%d taintR=%d taintW=%d",
					label, r,
					sc[r].Instructions, sc[r].Syscalls, sc[r].TaintedMemReads, sc[r].TaintedMemWrites,
					fc[r].Instructions, fc[r].Syscalls, fc[r].TaintedMemReads, fc[r].TaintedMemWrites)
				if sc[r].PerOp != fc[r].PerOp {
					for op := range sc[r].PerOp {
						if sc[r].PerOp[op] != fc[r].PerOp[op] {
							t.Errorf("%s: rank %d op %s: scratch %d forked %d",
								label, r, isa.Op(op), sc[r].PerOp[op], fc[r].PerOp[op])
						}
					}
				}
			}
		}
	}
	if s, f := summarize(scratch), summarize(forked); s != f {
		t.Errorf("%s: trace summaries differ:\n scratch %+v\n forked  %+v", label, s, f)
	}
	sameLog(t, label, scratch, forked)
}

// TestForkedRunMatchesScratch is the fork-vs-scratch differential: for a
// range of fork sites, seeds and trace modes, a run resumed from a world
// snapshot must be bitwise identical to a from-scratch run of the same spec —
// terminations, outputs, consoles, injection records, per-rank counters
// (modulo TB cache statistics) and the propagation log.
func TestForkedRunMatchesScratch(t *testing.T) {
	prog := crossProg(t)
	for _, trace := range []bool{false, true} {
		for _, site := range []ForkSite{{Rank: 0, N: 1}, {Rank: 0, N: 3}, {Rank: 0, N: 8}} {
			for _, seed := range []int64{11, 23} {
				spec := &Spec{
					Target: "cross_app", Ops: []isa.Op{isa.OpFAdd},
					TargetRank: site.Rank,
					Cond:       Deterministic{N: site.N},
					Bits:       2, Trace: trace, Seed: seed,
				}
				cfg := RunConfig{Prog: prog, WorldSize: 2, Spec: spec}
				label := fmt.Sprintf("trace=%v site=%+v seed=%d", trace, site, seed)

				scratch, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s: scratch: %v", label, err)
				}
				ws, err := PrefixRun(cfg, site)
				if err != nil {
					t.Fatalf("%s: prefix: %v", label, err)
				}
				forked, err := RunForked(cfg, ws)
				if err != nil {
					t.Fatalf("%s: forked: %v", label, err)
				}
				if !forked.Injected() {
					t.Fatalf("%s: forked run did not inject", label)
				}
				compareRuns(t, label, scratch, forked)
			}
		}
	}
}

// TestLadderForkMatchesScratch chains snapshots over rising sites — each rung
// advanced from the one before — and forks every trigger from the nearest
// rung at or below it: the rung at the trigger itself, and every earlier one,
// which replays the executions in between. All of them must be bitwise a
// from-scratch run, and using a rung (forking from it, advancing it) must
// leave it intact for the next user.
func TestLadderForkMatchesScratch(t *testing.T) {
	prog := crossProg(t)
	mkCfg := func(n uint64, trace bool, seed int64) RunConfig {
		return RunConfig{Prog: prog, WorldSize: 2, Spec: &Spec{
			Target: "cross_app", Ops: []isa.Op{isa.OpFAdd},
			TargetRank: 0, Cond: Deterministic{N: n},
			Bits: 2, Trace: trace, Seed: seed,
		}}
	}
	for _, trace := range []bool{false, true} {
		var rungs []*WorldSnapshot
		var prev *WorldSnapshot
		for _, n := range []uint64{1, 2, 5, 8} {
			ws, err := PrefixRunFrom(mkCfg(n, trace, 0), prev, ForkSite{Rank: 0, N: n})
			if err != nil {
				t.Fatalf("trace=%v: rung n=%d: %v", trace, n, err)
			}
			if ws.FreshBytes() <= 0 || ws.FreshBytes() > ws.Bytes() {
				t.Errorf("trace=%v: rung n=%d: fresh %d of %d bytes", trace, n, ws.FreshBytes(), ws.Bytes())
			}
			rungs = append(rungs, ws)
			prev = ws
		}
		if first := rungs[0]; first.FreshBytes() != first.Bytes() {
			t.Errorf("trace=%v: first rung fresh %d != total %d bytes", trace, first.FreshBytes(), first.Bytes())
		}
		for n := uint64(1); n <= 8; n++ {
			cfg := mkCfg(n, trace, int64(100+n))
			scratch, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, ws := range rungs {
				if ws.Site().N > n {
					continue
				}
				forked, err := RunForked(cfg, ws)
				if err != nil {
					t.Fatalf("trace=%v n=%d from rung %d: %v", trace, n, ws.Site().N, err)
				}
				compareRuns(t, fmt.Sprintf("trace=%v n=%d rung=%d", trace, n, ws.Site().N), scratch, forked)
			}
		}
	}
}

// TestForkedRunsShareOneSnapshot forks many differently seeded runs from a
// single snapshot concurrently: copy-on-write pages and cloned injector
// state must keep every fork independent, and each must still match its own
// from-scratch twin.
func TestForkedRunsShareOneSnapshot(t *testing.T) {
	prog := crossProg(t)
	site := ForkSite{Rank: 0, N: 5}
	mkSpec := func(seed int64) *Spec {
		return &Spec{
			Target: "cross_app", Ops: []isa.Op{isa.OpFAdd},
			TargetRank: site.Rank, Cond: Deterministic{N: site.N},
			Bits: 1, Trace: true, Seed: seed,
		}
	}
	ws, err := PrefixRun(RunConfig{Prog: prog, WorldSize: 2, Spec: mkSpec(0)}, site)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	forked := make([]*RunResult, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			forked[i], errs[i] = RunForked(
				RunConfig{Prog: prog, WorldSize: 2, Spec: mkSpec(seed)}, ws)
		}(i, seed)
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", seed, errs[i])
		}
		scratch, err := Run(RunConfig{Prog: prog, WorldSize: 2, Spec: mkSpec(seed)})
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, fmt.Sprintf("seed=%d", seed), scratch, forked[i])
	}
}

// TestPrefixRunRejectsInvalidSites covers the errors a prefix or forked run
// returns instead of a world: sites out of range, sites that never fire, and
// mismatched fork specs.
func TestPrefixRunRejectsInvalidSites(t *testing.T) {
	prog := crossProg(t)
	spec := &Spec{
		Target: "cross_app", Ops: []isa.Op{isa.OpFAdd},
		TargetRank: 0, Cond: Deterministic{N: 1}, Bits: 1, Seed: 1,
	}
	cfg := RunConfig{Prog: prog, WorldSize: 2, Spec: spec}

	if _, err := PrefixRun(cfg, ForkSite{Rank: 7, N: 1}); err == nil {
		t.Error("rank out of range accepted")
	}
	if _, err := PrefixRun(cfg, ForkSite{Rank: 0, N: 0}); err == nil {
		t.Error("zero N accepted")
	}
	// The targeted op executes only 8 times on rank 0; a later site must
	// fail (the world runs to completion without pausing).
	if _, err := PrefixRun(cfg, ForkSite{Rank: 0, N: 99999}); err == nil {
		t.Error("unreachable site accepted")
	}

	ws, err := PrefixRun(cfg, ForkSite{Rank: 0, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A trigger below the snapshot's site has already executed: refused. At
	// or above it the fork replays the executions in between: accepted.
	below := *spec
	below.Cond = Deterministic{N: 1}
	if _, err := RunForked(RunConfig{Prog: prog, WorldSize: 2, Spec: &below}, ws); err == nil {
		t.Error("trigger below the snapshot's site accepted")
	}
	above := *spec
	above.Cond = Deterministic{N: 3}
	if res, err := RunForked(RunConfig{Prog: prog, WorldSize: 2, Spec: &above}, ws); err != nil {
		t.Errorf("trigger above the snapshot's site refused: %v", err)
	} else if !res.Injected() {
		t.Error("trigger above the snapshot's site never fired")
	}
	prob := *spec
	prob.Cond = Probabilistic{P: 0.5}
	if _, err := RunForked(RunConfig{Prog: prog, WorldSize: 2, Spec: &prob}, ws); err == nil {
		t.Error("non-deterministic condition accepted")
	}
	// The same holds for advancing a snapshot: only downstream, same rank.
	if _, err := PrefixRunFrom(cfg, ws, ForkSite{Rank: 0, N: 1}); err == nil {
		t.Error("snapshot advanced to an earlier site")
	}
	if _, err := PrefixRunFrom(cfg, ws, ForkSite{Rank: 1, N: 5}); err == nil {
		t.Error("snapshot advanced on another rank")
	}
	if same, err := PrefixRunFrom(cfg, ws, ForkSite{Rank: 0, N: 2}); err != nil || same != ws {
		t.Errorf("advancing to the snapshot's own site = %p, %v; want the snapshot itself", same, err)
	}
	if _, err := PrefixRunFrom(cfg, ws, ForkSite{Rank: 0, N: 99999}); err == nil {
		t.Error("unreachable site accepted from a snapshot")
	}
	bad2 := *spec
	bad2.TargetRank = 1
	if _, err := RunForked(RunConfig{Prog: prog, WorldSize: 2, Spec: &bad2}, ws); err == nil {
		t.Error("mismatched target rank accepted")
	}
}

// TestForkWithPreTerminatedRank pauses on the receiving rank after the
// sender may already have exited cleanly: the snapshot then restores rank 0
// pre-terminated (or paused — both must reproduce the scratch run).
func TestForkWithPreTerminatedRank(t *testing.T) {
	prog := crossProg(t)
	site := ForkSite{Rank: 1, N: 1}
	spec := &Spec{
		Target: "cross_app", Ops: []isa.Op{isa.OpFMul},
		TargetRank: 1, Cond: Deterministic{N: site.N},
		Bits: 2, Trace: true, Seed: 31,
	}
	cfg := RunConfig{Prog: prog, WorldSize: 2, Spec: spec}
	scratch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := PrefixRun(cfg, site)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := RunForked(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "pre-terminated", scratch, forked)
}
