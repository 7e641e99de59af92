package vm

import "fmt"

// Signal models the guest-visible OS signals a fault can raise.
type Signal uint8

// Guest signals.
const (
	SigNone Signal = iota
	// SIGSEGV: access to unmapped memory or an instruction fetch fault.
	SIGSEGV
	// SIGFPE: integer division or modulo by zero.
	SIGFPE
	// SIGILL: execution of an undecodable instruction.
	SIGILL
)

// String returns the conventional signal name.
func (s Signal) String() string {
	switch s {
	case SigNone:
		return "none"
	case SIGSEGV:
		return "SIGSEGV"
	case SIGFPE:
		return "SIGFPE"
	case SIGILL:
		return "SIGILL"
	}
	return fmt.Sprintf("signal(%d)", int(s))
}

// Reason classifies how a guest process ended.
type Reason uint8

// Termination reasons.
const (
	// ReasonExited: the process called exit or ran to hlt.
	ReasonExited Reason = iota + 1
	// ReasonSignal: the process was killed by an OS exception.
	ReasonSignal
	// ReasonAssert: a program-level assertion (e.g. CLAMR's mass
	// conservation checker) failed.
	ReasonAssert
	// ReasonMPIError: the MPI runtime detected an error (invalid argument,
	// peer failure, truncation).
	ReasonMPIError
	// ReasonBudget: the instruction budget was exhausted (a hung process
	// killed by the supervisor).
	ReasonBudget
	// ReasonTimeout: the wall-clock watchdog expired. Distinct from
	// ReasonBudget: a budget kill means the guest retired too many
	// instructions (a spinning hang), while a timeout means the run burned
	// too much real time (a stalled hang — blocked I/O, a descheduled
	// world, or a simulator stall the step counter can never observe).
	ReasonTimeout
	// ReasonPaused: the machine was suspended at a resumable point for a
	// snapshot (fork-point run multiplexing). Not a guest outcome: a paused
	// world is captured and discarded, never classified.
	ReasonPaused
)

// String returns the reason name.
func (r Reason) String() string {
	switch r {
	case ReasonExited:
		return "exited"
	case ReasonSignal:
		return "signal"
	case ReasonAssert:
		return "assert-failed"
	case ReasonMPIError:
		return "mpi-error"
	case ReasonBudget:
		return "budget-exhausted"
	case ReasonTimeout:
		return "timeout"
	case ReasonPaused:
		return "paused"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// Termination is the final status of a guest process.
type Termination struct {
	Reason Reason
	Signal Signal // set when Reason == ReasonSignal
	// segv marks a SIGSEGV whose text is SegFaultError's for the access to
	// segvAddr, a write when segvWrite is set. Reason and Signal are a byte
	// each and the flags sit beside them: a Termination is 48 bytes.
	segv, segvWrite bool
	Code            int64  // exit code or assertion code
	PC              uint64 // guest pc at termination
	// Msg is the human-readable detail as given. Read Message instead: the
	// detail of a guest access outside every mapped region is left out of
	// Msg and formatted only when it is read.
	Msg      string
	segvAddr uint64
}

// Message returns the human-readable detail: Msg, or the text of the
// segmentation fault that ended the process.
func (t Termination) Message() string {
	if t.segv {
		return (&SegFaultError{Addr: t.segvAddr, Write: t.segvWrite}).Error()
	}
	return t.Msg
}

// OK reports a clean exit with code zero.
func (t Termination) OK() bool {
	return t.Reason == ReasonExited && t.Code == 0
}

// Abnormal reports any outcome other than a clean or non-zero exit, i.e.
// the process was "terminated" in the paper's classification sense.
func (t Termination) Abnormal() bool {
	return t.Reason != ReasonExited
}

// String renders the termination status.
func (t Termination) String() string {
	switch t.Reason {
	case ReasonExited:
		return fmt.Sprintf("exited(%d)", t.Code)
	case ReasonSignal:
		return fmt.Sprintf("killed(%s) at %#x: %s", t.Signal, t.PC, t.Message())
	case ReasonAssert:
		return fmt.Sprintf("assert-failed(code=%d) at %#x", t.Code, t.PC)
	case ReasonMPIError:
		return fmt.Sprintf("mpi-error at %#x: %s", t.PC, t.Message())
	case ReasonBudget:
		return fmt.Sprintf("budget-exhausted at %#x", t.PC)
	case ReasonTimeout:
		return fmt.Sprintf("wall-clock timeout at %#x: %s", t.PC, t.Message())
	case ReasonPaused:
		return fmt.Sprintf("paused at %#x", t.PC)
	}
	return fmt.Sprintf("termination(%d)", int(t.Reason))
}
