package campaign

import (
	"strings"
	"testing"

	"chaser/internal/core"
	"chaser/internal/trace"
	"chaser/internal/vm"
)

func injected() []core.InjectionRecord {
	return []core.InjectionRecord{{Rank: 0, Target: "reg r1", Mask: 1}}
}

func mkRes(terms []vm.Termination, outputs [][]byte, recs []core.InjectionRecord) *core.RunResult {
	return &core.RunResult{
		Terms:   terms,
		Outputs: outputs,
		Records: recs,
		Trace:   trace.NewCollector(),
	}
}

func exited() vm.Termination { return vm.Termination{Reason: vm.ReasonExited} }

func TestClassifyBenignAndSDC(t *testing.T) {
	golden := [][]byte{{1, 2, 3}}
	same := mkRes([]vm.Termination{exited()}, [][]byte{{1, 2, 3}}, injected())
	if got := Classify(same, golden, 0); got.Outcome != OutcomeBenign {
		t.Errorf("benign = %v", got.Outcome)
	}
	diff := mkRes([]vm.Termination{exited()}, [][]byte{{1, 2, 4}}, injected())
	if got := Classify(diff, golden, 0); got.Outcome != OutcomeSDC {
		t.Errorf("sdc = %v", got.Outcome)
	}
}

func TestClassifyNoInjection(t *testing.T) {
	res := mkRes([]vm.Termination{exited()}, [][]byte{{}}, nil)
	if got := Classify(res, [][]byte{{}}, 0); got.Outcome != OutcomeNoInjection {
		t.Errorf("outcome = %v", got.Outcome)
	}
}

func TestClassifyDetected(t *testing.T) {
	res := mkRes([]vm.Termination{{Reason: vm.ReasonAssert, Code: 200}}, [][]byte{nil}, injected())
	if got := Classify(res, [][]byte{nil}, 0); got.Outcome != OutcomeDetected {
		t.Errorf("outcome = %v", got.Outcome)
	}
}

func TestClassifyTerminations(t *testing.T) {
	golden := [][]byte{nil, nil}
	tests := []struct {
		name     string
		terms    []vm.Termination
		wantTerm TermClass
		wantRoot int
	}{
		{
			"os exception on master",
			[]vm.Termination{
				{Reason: vm.ReasonSignal, Signal: vm.SIGSEGV},
				{Reason: vm.ReasonMPIError, Msg: "peer rank 0 terminated: killed"},
			},
			TermOS, 0,
		},
		{
			"mpi error on master",
			[]vm.Termination{
				{Reason: vm.ReasonMPIError, Msg: "MPI_Send: invalid rank 99"},
				{Reason: vm.ReasonMPIError, Msg: "peer rank 0 terminated: x"},
			},
			TermMPI, 0,
		},
		{
			"hang on master",
			[]vm.Termination{
				{Reason: vm.ReasonBudget},
				{Reason: vm.ReasonMPIError, Msg: "peer rank 0 terminated: x"},
			},
			TermHang, 0,
		},
		{
			"slave node failed (os)",
			[]vm.Termination{
				{Reason: vm.ReasonMPIError, Msg: "peer rank 1 terminated: killed"},
				{Reason: vm.ReasonSignal, Signal: vm.SIGSEGV},
			},
			TermSlaveNode, 1,
		},
		{
			"slave node failed (mpi)",
			[]vm.Termination{
				{Reason: vm.ReasonMPIError, Msg: "peer rank 1 terminated: x"},
				{Reason: vm.ReasonMPIError, Msg: "MPI_Recv: message truncated"},
			},
			TermSlaveNode, 1,
		},
		{
			"deadlock",
			[]vm.Termination{
				{Reason: vm.ReasonMPIError, Msg: "deadlock detected: all live ranks blocked in MPI"},
				{Reason: vm.ReasonMPIError, Msg: "deadlock detected: all live ranks blocked in MPI"},
			},
			TermMPI, 0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := mkRes(tt.terms, [][]byte{nil, nil}, injected())
			got := Classify(res, golden, 0)
			if got.Outcome != OutcomeTerminated {
				t.Fatalf("outcome = %v", got.Outcome)
			}
			if got.Term != tt.wantTerm {
				t.Errorf("term = %v, want %v", got.Term, tt.wantTerm)
			}
			if got.RootRank != tt.wantRoot {
				t.Errorf("root = %d, want %d", got.RootRank, tt.wantRoot)
			}
		})
	}
}

func TestClassifyTimeout(t *testing.T) {
	// The watchdog interrupts every rank at once, so all ranks carry
	// ReasonTimeout and the root falls on rank 0 regardless of the target.
	timeoutTerms := []vm.Termination{
		{Reason: vm.ReasonTimeout, Msg: "wall-clock deadline 5ms exceeded"},
		{Reason: vm.ReasonTimeout, Msg: "wall-clock deadline 5ms exceeded"},
	}
	for _, target := range []int{0, 1} {
		res := mkRes(timeoutTerms, [][]byte{nil, nil}, injected())
		got := Classify(res, [][]byte{nil, nil}, target)
		if got.Outcome != OutcomeTerminated {
			t.Fatalf("target %d: outcome = %v", target, got.Outcome)
		}
		// The slavefail interaction: with target 1 the root rank (0)
		// differs from the target, which must NOT be read as slave-node
		// propagation — the watchdog, not the fault, killed rank 0.
		if got.Term != TermTimeout {
			t.Errorf("target %d: term = %v, want %v", target, got.Term, TermTimeout)
		}
		if got.SlaveTermOS || got.SlaveTermMPI {
			t.Errorf("target %d: timeout set slave flags", target)
		}
	}
	// A genuine slave-node failure alongside is still classified as such:
	// only timeouts reroute.
	res := mkRes([]vm.Termination{
		{Reason: vm.ReasonMPIError, Msg: "peer rank 1 terminated: killed"},
		{Reason: vm.ReasonSignal, Signal: vm.SIGSEGV},
	}, [][]byte{nil, nil}, injected())
	if got := Classify(res, [][]byte{nil, nil}, 0); got.Term != TermSlaveNode {
		t.Errorf("slave classification regressed: %v", got.Term)
	}
}

func TestSummarizeSimCrash(t *testing.T) {
	outcomes := []RunOutcome{
		{Outcome: OutcomeBenign, Records: injected()},
		{Outcome: OutcomeSimCrash, RootRank: -1, PanicMsg: "mpi: rank 0: boom"},
		{Outcome: OutcomeTerminated, Term: TermTimeout, Records: injected()},
	}
	s := summarize(Config{Name: "x"}, outcomes)
	if s.SimCrash != 1 {
		t.Errorf("SimCrash = %d", s.SimCrash)
	}
	if s.Injected != 2 {
		t.Errorf("Injected = %d (crashes must not count as injected)", s.Injected)
	}
	if s.Benign != 1 || s.Terminated != 1 || s.TermTimeout != 1 {
		t.Errorf("tallies = %+v", s)
	}
	rep := s.Report()
	for _, want := range []string{"simulator crashes", "timeout"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestClassifySlaveBreakdownFlags(t *testing.T) {
	res := mkRes([]vm.Termination{
		{Reason: vm.ReasonMPIError, Msg: "peer rank 1 terminated: x"},
		{Reason: vm.ReasonSignal, Signal: vm.SIGSEGV},
	}, [][]byte{nil, nil}, injected())
	res.Trace.AddCrossRank(trace.CrossRankRecord{Src: 0, Dst: 1})
	got := Classify(res, [][]byte{nil, nil}, 0)
	if !got.Propagated {
		t.Error("propagation not detected")
	}
	if !got.SlaveTermOS || got.SlaveTermMPI {
		t.Errorf("slave flags = os:%v mpi:%v", got.SlaveTermOS, got.SlaveTermMPI)
	}
}

func TestClassifyCountsTaintOps(t *testing.T) {
	// The totals are the machines' own counts, summed over the ranks: they
	// are there whether or not the run kept its access log.
	res := mkRes([]vm.Termination{exited()}, [][]byte{{1}}, injected())
	res.Counters = []vm.Counters{
		{TaintedMemReads: 1, TaintedMemWrites: 1},
		{TaintedMemReads: 1},
	}
	got := Classify(res, [][]byte{{1}}, 0)
	if got.TaintedReads != 2 || got.TaintedWrites != 1 {
		t.Errorf("taint ops = %d/%d", got.TaintedReads, got.TaintedWrites)
	}
}

func TestOutcomeAndTermClassNames(t *testing.T) {
	outs := map[Outcome]string{
		OutcomeBenign: "benign", OutcomeSDC: "sdc", OutcomeDetected: "detected",
		OutcomeTerminated: "terminated", OutcomeNoInjection: "no-injection",
		OutcomeSimCrash: "crash(simulator)",
	}
	for o, want := range outs {
		if o.String() != want {
			t.Errorf("Outcome(%d) = %q, want %q", o, o.String(), want)
		}
	}
	if Outcome(99).String() == "" {
		t.Error("unknown outcome empty")
	}
	terms := map[TermClass]string{
		TermNone: "none", TermOS: "os-exception", TermMPI: "mpi-error",
		TermSlaveNode: "slave-node-failed", TermHang: "hang",
		TermTimeout: "timeout",
	}
	for tc, want := range terms {
		if tc.String() != want {
			t.Errorf("TermClass(%d) = %q, want %q", tc, tc.String(), want)
		}
	}
	if TermClass(99).String() == "" {
		t.Error("unknown term class empty")
	}
}

func TestOverheadPercentages(t *testing.T) {
	r := OverheadResult{Baseline: 100, InjectOnly: 110, TraceOnly: 120, InjectAndTrace: 132}
	if got := r.InjectOverheadPct(); got < 9.9 || got > 10.1 {
		t.Errorf("InjectOverheadPct = %v", got)
	}
	if got := r.TraceOverheadPct(); got < 19.9 || got > 20.1 {
		t.Errorf("TraceOverheadPct = %v", got)
	}
	if (OverheadResult{}).InjectOverheadPct() != 0 {
		t.Error("zero baseline not handled")
	}
}
