package campaign

import (
	"reflect"
	"sync"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/core"
	"chaser/internal/trace"
	"chaser/internal/vm"
)

// TestTimelineDefaultSampleInterval pins the SampleInterval=0 contract: zero
// selects the vm's default (the paper's 100K instructions), so an explicit
// default-interval run must produce the identical curve.
func TestTimelineDefaultSampleInterval(t *testing.T) {
	app, err := apps.ByName("clamr")
	if err != nil {
		t.Fatal(err)
	}
	base := TimelineConfig{
		Prog: app.Prog, WorldSize: 1, Ops: app.DefaultOps,
		N: 200, Bits: 1, Seed: 6,
	}
	implicit := base // SampleInterval left zero
	explicit := base
	explicit.SampleInterval = vm.DefaultSampleInterval

	implPoints, implRes, err := Timeline(implicit)
	if err != nil {
		t.Fatal(err)
	}
	explPoints, _, err := Timeline(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !implRes.Injected() {
		t.Fatal("no injection")
	}
	if len(implPoints) != len(explPoints) {
		t.Fatalf("default-interval curve has %d points, explicit 100K has %d",
			len(implPoints), len(explPoints))
	}
	for i := range implPoints {
		if implPoints[i] != explPoints[i] {
			t.Errorf("point %d differs: %+v vs %+v", i, implPoints[i], explPoints[i])
		}
	}
	// Every sample must land on the default-interval grid.
	for _, p := range implPoints {
		if p.Instrs%vm.DefaultSampleInterval != 0 {
			t.Errorf("sample at %d instrs is off the %d-instruction grid",
				p.Instrs, uint64(vm.DefaultSampleInterval))
		}
	}
}

// TestTimelineInjectionBeyondEnd runs a timeline whose trigger count exceeds
// the program's total executions of the targeted ops: the fault never fires,
// the run completes cleanly, and the curve stays empty (no taint to sample).
func TestTimelineInjectionBeyondEnd(t *testing.T) {
	app, err := apps.ByName("clamr")
	if err != nil {
		t.Fatal(err)
	}
	points, res, err := Timeline(TimelineConfig{
		Prog: app.Prog, WorldSize: 1, Ops: app.DefaultOps,
		N: 1 << 60, Bits: 1, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected() {
		t.Fatalf("injection fired at execution %d of an op executed far fewer times", uint64(1)<<60)
	}
	for r, term := range res.Terms {
		if term.Abnormal() {
			t.Errorf("rank %d terminated abnormally without an injection: %s", r, term)
		}
	}
	// The sampler still fires on its grid (tracing is armed), but with no
	// fault there is never a tainted byte to report.
	for _, p := range points {
		if p.TaintedBytes != 0 {
			t.Errorf("uninjected run reports %d tainted bytes at %d instrs",
				p.TaintedBytes, p.Instrs)
		}
	}
	if out := Classify(res, res.Outputs, 0); out.Outcome != OutcomeNoInjection {
		t.Errorf("classified %s, want no-injection", out.Outcome)
	}
}

// TestTimelineTargetRankOutOfWorld points the injector at a rank that does
// not exist: no machine is armed, so the run is effectively golden — it must
// complete normally with no injection rather than error or crash.
func TestTimelineTargetRankOutOfWorld(t *testing.T) {
	app, err := apps.ByName("clamr")
	if err != nil {
		t.Fatal(err)
	}
	points, res, err := Timeline(TimelineConfig{
		Prog: app.Prog, WorldSize: 1, Ops: app.DefaultOps,
		N: 200, Bits: 1, Seed: 6, TargetRank: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected() {
		t.Fatalf("injected on rank %d with a world of 1", res.Records[0].Rank)
	}
	for r, term := range res.Terms {
		if term.Abnormal() {
			t.Errorf("rank %d terminated abnormally: %s", r, term)
		}
	}
	for _, p := range points {
		if p.TaintedBytes != 0 {
			t.Errorf("unarmed world reports %d tainted bytes at %d instrs",
				p.TaintedBytes, p.Instrs)
		}
	}
}

// TestCampaignTimelinesSameUnderAblations runs one random-site LUD campaign
// three ways — the ladder with the fast loop (the default), every block on
// the full loop, and every run from program entry — and demands the same
// tainted-bytes timeline for every run: the sampler's next boundary is right
// whichever loop reaches it and whichever rung the run was forked from.
func TestCampaignTimelinesSameUnderAblations(t *testing.T) {
	timelines := func(mutate func(*Config)) map[int][]trace.TimelinePoint {
		t.Helper()
		cfg := appConfig(t, "lud")
		var mu sync.Mutex
		out := make(map[int][]trace.TimelinePoint)
		cfg.RunObserver = func(idx, _ int, _ RunOutcome, res *core.RunResult) {
			if res != nil {
				mu.Lock()
				out[idx] = res.Trace.Timeline()
				mu.Unlock()
			}
		}
		mutate(&cfg)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := timelines(func(*Config) {})
	sampled := 0
	for _, tl := range want {
		if len(tl) > 0 && tl[len(tl)-1].TaintedBytes > 0 {
			sampled++
		}
	}
	if len(want) != 12 || sampled == 0 {
		t.Fatalf("%d runs observed, %d with a tainted sample", len(want), sampled)
	}
	for name, mutate := range map[string]func(*Config){
		"NoFastPath": func(c *Config) { c.NoFastPath = true },
		"NoFork":     func(c *Config) { c.NoFork = true },
	} {
		if got := timelines(mutate); !reflect.DeepEqual(got, want) {
			for idx := range want {
				if !reflect.DeepEqual(got[idx], want[idx]) {
					t.Errorf("%s: run %d timeline differs:\n got  %+v\n want %+v", name, idx, got[idx], want[idx])
				}
			}
		}
	}
}
