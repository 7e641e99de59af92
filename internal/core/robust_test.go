package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
	"chaser/internal/vm"
)

// spinProg runs a very long compute loop: wall-clock fodder for the
// watchdog.
func spinProg(t *testing.T) *isa.Program {
	t.Helper()
	I, V, B := lang.I, lang.V, lang.Block
	prog, err := lang.Compile(&lang.Program{Name: "spin", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("s", I(0)),
			lang.For{Var: "i", From: I(0), To: I(1 << 40), Body: B(
				lang.Set("s", lang.Add(V("s"), I(1))),
			)},
		),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRunWallClockTimeout: the watchdog must kill a run that burns real
// time, yielding ReasonTimeout — distinct from the instruction-budget
// ReasonBudget a spinning hang produces.
func TestRunWallClockTimeout(t *testing.T) {
	res, err := Run(RunConfig{
		Prog:            spinProg(t),
		WorldSize:       1,
		MaxInstructions: 1 << 40, // the budget must NOT fire first
		Timeout:         2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	term := res.Terms[0]
	if term.Reason != vm.ReasonTimeout {
		t.Fatalf("reason = %v, want timeout (%v)", term.Reason, term)
	}
	if !term.Abnormal() {
		t.Error("timeout termination not abnormal")
	}
	if !strings.Contains(term.String(), "timeout") {
		t.Errorf("termination string %q lacks 'timeout'", term.String())
	}
}

// errHub fails every operation, simulating a head-node hub that is down
// for longer than the client's whole retry budget.
type errHub struct{}

func (errHub) Publish(tainthub.ReqID, tainthub.Key, uint64, []uint8) error {
	return fmt.Errorf("hub down")
}
func (errHub) Poll(tainthub.ReqID, tainthub.Key, uint64) ([]uint8, bool, error) {
	return nil, false, fmt.Errorf("hub down")
}
func (errHub) Stats() tainthub.Stats { return tainthub.Stats{} }

// tracedCrossConfig builds a run whose target rank sends a tainted message
// with tracing on, forcing a hub Publish from the send hook and the matching
// Poll from the receive hook (a clean message would cost no hub call).
func tracedCrossConfig(t *testing.T, hub tainthub.Hub, policy HubPolicy, reg *obs.Registry) RunConfig {
	t.Helper()
	return RunConfig{
		Prog:      crossProg(t),
		WorldSize: 2,
		Hub:       hub,
		HubPolicy: policy,
		Obs:       reg,
		Spec: &Spec{
			Target: "cross_app", Ops: []isa.Op{isa.OpFAdd},
			TargetRank: 0,
			Cond:       Deterministic{N: 4},
			Bits:       1, Trace: true, Seed: 7,
		},
	}
}

// TestHubPolicyDegrade: with the default policy, a dead hub degrades
// tracing (counted) but the run itself succeeds.
func TestHubPolicyDegrade(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := Run(tracedCrossConfig(t, errHub{}, HubDegrade, reg))
	if err != nil {
		t.Fatalf("degrade policy failed the run: %v", err)
	}
	for r, term := range res.Terms {
		if term.Abnormal() {
			t.Errorf("rank %d terminated abnormally under degrade: %v", r, term)
		}
	}
	if got := reg.Counter("core_hub_degraded_total").Value(); got == 0 {
		t.Error("degradation not counted")
	}
}

// TestHubPolicyFailRun: the strict policy must surface the degradation as
// a run error so campaigns can tell unsound tracing from sound tracing.
func TestHubPolicyFailRun(t *testing.T) {
	_, err := Run(tracedCrossConfig(t, errHub{}, HubFailRun, obs.NewRegistry()))
	if err == nil {
		t.Fatal("HubFailRun swallowed a hub failure")
	}
	if !strings.Contains(err.Error(), "taint hub failed") {
		t.Errorf("error %q does not name the hub failure", err)
	}
}

// TestHubPolicyStrings pins the flag-facing names.
func TestHubPolicyStrings(t *testing.T) {
	if HubDegrade.String() != "degrade" || HubFailRun.String() != "fail" {
		t.Errorf("policy names = %q/%q", HubDegrade, HubFailRun)
	}
	if HubPolicy(9).String() == "" {
		t.Error("unknown policy empty")
	}
}
