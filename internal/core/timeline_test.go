package core

import (
	"reflect"
	"testing"

	"chaser/internal/apps"
)

// TestTimelineSameOnEveryPath pins the sampler's boundary bookkeeping: the
// tainted-bytes timeline of one injected run is the same whether the prefix
// ran on the fast loop or the full one, and whether the run started at
// program entry or was forked from a snapshot — taken at the trigger or
// rungs earlier, at instruction counts that are not on the sampling grid.
func TestTimelineSameOnEveryPath(t *testing.T) {
	app, err := apps.ByName("lud")
	if err != nil {
		t.Fatal(err)
	}
	const interval = 7000
	cfg := RunConfig{
		Prog: app.Prog, WorldSize: 1, SampleInterval: interval,
		Spec: &Spec{
			Target: app.Name, Ops: app.DefaultOps, TargetRank: 0,
			Cond: Deterministic{N: 14000}, Bits: 1, Seed: 7, Trace: true,
		},
	}
	scratch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := scratch.Trace.Timeline()
	if len(want) < 10 || !scratch.Injected() {
		t.Fatalf("reference run: %d samples, injected %v", len(want), scratch.Injected())
	}
	for i, p := range want {
		if p.Instrs != uint64(i+1)*interval {
			t.Fatalf("sample %d at %d instructions, want %d", i, p.Instrs, uint64(i+1)*interval)
		}
	}
	if last := want[len(want)-1]; last.TaintedBytes == 0 {
		t.Fatalf("the fault left no tainted bytes to sample: %+v", last)
	}

	full := cfg
	full.NoFastPath = true
	res, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Trace.Timeline(); !reflect.DeepEqual(got, want) {
		t.Errorf("NoFastPath timeline differs:\n got  %+v\n want %+v", got, want)
	}

	var rung *WorldSnapshot
	for _, n := range []uint64{2500, 9100, 14000} {
		if rung, err = PrefixRunFrom(cfg, rung, ForkSite{Rank: 0, N: n}); err != nil {
			t.Fatal(err)
		}
		at := rung.machines[0].Counters().Instructions
		if at%interval == 0 {
			t.Fatalf("rung %d sits on the sampling grid (%d instructions); pick another site", n, at)
		}
		forked, err := RunForked(cfg, rung)
		if err != nil {
			t.Fatal(err)
		}
		if got := forked.Trace.Timeline(); !reflect.DeepEqual(got, want) {
			t.Errorf("timeline forked from rung %d (%d instructions) differs:\n got  %+v\n want %+v", n, at, got, want)
		}
	}
}
