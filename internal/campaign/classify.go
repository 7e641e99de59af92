// Package campaign implements statistical fault-injection campaigns: golden
// runs, randomized injection-point selection, parallel execution, and the
// outcome classification of the paper's evaluation — benign / silent data
// corruption / detected / terminated, with the terminated class broken down
// into OS exceptions, MPI-runtime errors, slave-node failures, and hangs
// (Fig. 6, Table III).
package campaign

import (
	"bytes"
	"fmt"
	"strings"

	"chaser/internal/core"
	"chaser/internal/vm"
)

// Outcome is the paper's top-level failure classification.
type Outcome int

// Outcomes.
const (
	// OutcomeBenign: output files compare bit-wise equal to the golden run.
	OutcomeBenign Outcome = iota + 1
	// OutcomeSDC: the run completed but its output differs from golden.
	OutcomeSDC
	// OutcomeDetected: a program-level checker caught the fault (CLAMR's
	// mass-conservation assertion).
	OutcomeDetected
	// OutcomeTerminated: the application crashed or was killed.
	OutcomeTerminated
	// OutcomeNoInjection: the fault never fired (diagnostic; should not
	// occur when injection points come from golden-run profiles).
	OutcomeNoInjection
	// OutcomeSimCrash: the simulator itself panicked during the run — a
	// tool bug, not a guest outcome. Isolated per-run so the rest of the
	// campaign proceeds; the panic message is retained for triage.
	//
	// New outcomes are appended here: the resume journal serializes the
	// numeric values, so reordering would misread old journals.
	OutcomeSimCrash
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomeBenign:
		return "benign"
	case OutcomeSDC:
		return "sdc"
	case OutcomeDetected:
		return "detected"
	case OutcomeTerminated:
		return "terminated"
	case OutcomeNoInjection:
		return "no-injection"
	case OutcomeSimCrash:
		return "crash(simulator)"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// TermClass breaks down terminated runs (Table III).
type TermClass int

// Termination classes.
const (
	TermNone TermClass = iota
	// TermOS: an OS exception such as SIGSEGV killed a rank.
	TermOS
	// TermMPI: the MPI runtime detected an error.
	TermMPI
	// TermSlaveNode: the fatal event occurred on a non-injected (slave)
	// rank — the fault propagated from the master and killed a peer.
	TermSlaveNode
	// TermHang: the run exceeded its instruction budget (supervisor kill).
	TermHang
	// TermTimeout: the run exceeded its wall-clock deadline (watchdog
	// kill). Distinct from TermHang: the guest burned real time, not
	// instructions. Appended for journal value stability (see Outcome).
	TermTimeout
)

// String returns the class name.
func (t TermClass) String() string {
	switch t {
	case TermNone:
		return "none"
	case TermOS:
		return "os-exception"
	case TermMPI:
		return "mpi-error"
	case TermSlaveNode:
		return "slave-node-failed"
	case TermHang:
		return "hang"
	case TermTimeout:
		return "timeout"
	}
	return fmt.Sprintf("termclass(%d)", int(t))
}

// RunOutcome is the classified result of one injection run.
type RunOutcome struct {
	Outcome Outcome
	Term    TermClass
	// RootRank is the rank where the fatal event originated (-1 if none).
	RootRank int
	// RootReason is that rank's own termination reason.
	RootReason vm.Reason
	// SlaveTermOS/SlaveTermMPI refine slave-node failures: what killed the
	// slave (Table III's propagation subset row).
	SlaveTermOS  bool
	SlaveTermMPI bool
	// Propagated reports whether taint crossed a rank boundary (tracing
	// runs only).
	Propagated bool
	// TaintedReads/TaintedWrites total the tainted memory operations across
	// all ranks (tracing runs only; Figs. 8 and 9).
	TaintedReads  uint64
	TaintedWrites uint64
	// Records are the injections performed.
	Records []core.InjectionRecord
	// PanicMsg carries the recovered panic text when Outcome is
	// OutcomeSimCrash (first line only; the full stack goes to the log).
	PanicMsg string `json:",omitempty"`
}

// InjectedOp returns the guest opcode of the first injection ("" if none),
// for per-opcode outcome breakdowns.
func (o *RunOutcome) InjectedOp() string {
	if len(o.Records) == 0 {
		return ""
	}
	return o.Records[0].GuestOpS
}

// isPeerAbort reports whether a termination is a secondary abort caused by
// another rank's failure rather than a local root cause.
func isPeerAbort(t vm.Termination) bool {
	return t.Reason == vm.ReasonMPIError &&
		(strings.Contains(t.Msg, "peer rank") || strings.Contains(t.Msg, "deadlock detected"))
}

// Classify reduces a run result to the paper's outcome taxonomy. targetRank
// is the rank that was injected into; goldenOutputs are the per-rank output
// files of the golden run. The outcome keeps nothing of res: its records are
// a copy, so a lent result (core.Lend) may be returned once it is classified.
func Classify(res *core.RunResult, goldenOutputs [][]byte, targetRank int) RunOutcome {
	out := RunOutcome{RootRank: -1, Records: append([]core.InjectionRecord(nil), res.Records...)}
	if res.Trace != nil {
		out.Propagated = res.Trace.Propagated()
	}
	// The machines count their tainted accesses whether or not the run kept
	// the access log; where it did, the log's totals are these.
	for r := range res.Counters {
		out.TaintedReads += res.Counters[r].TaintedMemReads
		out.TaintedWrites += res.Counters[r].TaintedMemWrites
	}
	if !res.Injected() {
		out.Outcome = OutcomeNoInjection
		return out
	}

	// Find the root cause: an abnormal termination that is not a secondary
	// peer abort. Deadlocks mark every rank as aborted; they fall through
	// to the deadlock case below.
	anyAbnormal := false
	for r, t := range res.Terms {
		if !t.Abnormal() {
			continue
		}
		anyAbnormal = true
		if isPeerAbort(t) {
			continue
		}
		if out.RootRank == -1 {
			out.RootRank = r
			out.RootReason = t.Reason
		}
	}

	switch {
	case !anyAbnormal:
		// Ran to completion: compare outputs bit-wise against golden.
		for r := range res.Outputs {
			if !bytes.Equal(res.Outputs[r], goldenOutputs[r]) {
				out.Outcome = OutcomeSDC
				return out
			}
		}
		out.Outcome = OutcomeBenign
		return out

	case out.RootRank == -1:
		// Every abnormal rank is a secondary abort: a fault-induced
		// deadlock detected and resolved by the MPI runtime.
		out.Outcome = OutcomeTerminated
		out.Term = TermMPI
		out.RootRank = targetRank
		out.RootReason = vm.ReasonMPIError
		return out
	}

	root := res.Terms[out.RootRank]
	if root.Reason == vm.ReasonAssert {
		// The application's own checker caught the fault.
		out.Outcome = OutcomeDetected
		return out
	}

	out.Outcome = OutcomeTerminated
	switch {
	case root.Reason == vm.ReasonTimeout:
		// The watchdog interrupts every rank at once, so the root rank is
		// arbitrary (usually rank 0); classify before the slave-node check
		// or a timeout on a rank != target would masquerade as propagation.
		out.Term = TermTimeout
	case out.RootRank != targetRank:
		// The fatal event surfaced on a rank that was never injected: the
		// corruption crossed the process boundary first.
		out.Term = TermSlaveNode
		out.SlaveTermOS = root.Reason == vm.ReasonSignal
		out.SlaveTermMPI = root.Reason == vm.ReasonMPIError
	case root.Reason == vm.ReasonSignal:
		out.Term = TermOS
	case root.Reason == vm.ReasonBudget:
		out.Term = TermHang
	default:
		out.Term = TermMPI
	}
	return out
}
