package vm

import (
	"errors"
	"fmt"
	"strconv"

	"chaser/internal/isa"
)

// Limits protecting the host from fault-corrupted guest arguments.
const (
	maxConsoleBytes = 1 << 20
	maxOutputBytes  = 1 << 24
	maxPrintLen     = 1 << 16
	heapLimit       = uint64(256 << 20)
)

// doSyscall dispatches one guest system call. The continuation pc has
// already been set by the engine; syscalls that terminate the process set
// m.term instead.
func (m *Machine) doSyscall(sys isa.Sys, eip uint64) {
	m.counters.Syscalls++
	if m.Hooks.PreSyscall != nil {
		m.Hooks.PreSyscall(m, sys)
		if m.term != nil {
			return
		}
	}
	m.finishSyscall(sys, eip)
}

// finishSyscall performs a system call whose pre-syscall hooks have run —
// again, for an MPI call the machine was suspended in — and runs the
// post-syscall hooks once it is complete.
func (m *Machine) finishSyscall(sys isa.Sys, eip uint64) {
	m.dispatchSyscall(sys, eip)
	if m.term == nil && m.waitingIn == 0 && m.Hooks.PostSyscall != nil {
		m.Hooks.PostSyscall(m, sys)
	}
}

func (m *Machine) dispatchSyscall(sys isa.Sys, eip uint64) {
	switch sys {
	case isa.SysExit:
		m.term = &Termination{Reason: ReasonExited, Code: int64(m.GPR(isa.R1)), PC: eip}

	case isa.SysPrintInt:
		m.appendConsole(strconv.FormatInt(int64(m.GPR(isa.R1)), 10) + "\n")
	case isa.SysPrintFloat:
		m.appendConsole(strconv.FormatFloat(m.FPR(isa.F1), 'g', -1, 64) + "\n")
	case isa.SysPrintStr:
		addr, n := m.GPR(isa.R1), m.GPR(isa.R2)
		if n > maxPrintLen {
			m.killAt(eip, SIGSEGV, fmt.Sprintf("print_str length %d too large", n))
			return
		}
		data, err := m.Mem.ReadBytes(addr, n)
		if err != nil {
			m.killAt(eip, SIGSEGV, err.Error())
			return
		}
		m.appendConsole(string(data))

	case isa.SysOutInt:
		var buf [8]byte
		v := m.GPR(isa.R1)
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		m.appendOutput(buf[:])
	case isa.SysOutFloat:
		var buf [8]byte
		v := m.regs[fprBitsIndex]
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		m.appendOutput(buf[:])
	case isa.SysOutBytes:
		addr, n := m.GPR(isa.R1), m.GPR(isa.R2)
		if n > maxOutputBytes {
			m.killAt(eip, SIGSEGV, fmt.Sprintf("out_bytes length %d too large", n))
			return
		}
		data, err := m.Mem.ReadBytes(addr, n)
		if err != nil {
			m.killAt(eip, SIGSEGV, err.Error())
			return
		}
		m.appendOutput(data)

	case isa.SysAlloc:
		size := int64(m.GPR(isa.R1))
		if size < 0 || uint64(size) > heapLimit || m.heapBrk+uint64(size) > isa.HeapBase+heapLimit {
			// A fault-corrupted allocation size: the guest allocator
			// fails hard, like a real OOM kill.
			m.killAt(eip, SIGSEGV, fmt.Sprintf("alloc of %d bytes failed", size))
			return
		}
		base := m.heapBrk
		// Round the next break to 8 bytes to keep allocations aligned.
		m.heapBrk += (uint64(size) + 7) &^ 7
		m.Mem.Map("heap", base, m.heapBrk-base+PageSize)
		m.SetGPR(isa.R0, base)

	case isa.SysAssert:
		if m.GPR(isa.R1) == 0 {
			m.term = &Termination{Reason: ReasonAssert, Code: int64(m.GPR(isa.R2)), PC: eip}
		}

	case isa.SysMPIRank, isa.SysMPISize, isa.SysMPISend, isa.SysMPIRecv,
		isa.SysMPIBarrier, isa.SysMPIBcast, isa.SysMPIReduce, isa.SysMPIAllreduce:
		if m.mpi == nil {
			m.term = &Termination{
				Reason: ReasonMPIError, PC: eip,
				Msg: fmt.Sprintf("%s called without an MPI environment", sys),
			}
			return
		}
		if err := m.mpi.Call(m, sys); err != nil {
			if err == ErrWait {
				m.waitingIn, m.waitPC = sys, eip
				return
			}
			var ab *AbortedError
			if errors.As(err, &ab) {
				t := ab.Term
				if t.PC == 0 {
					t.PC = eip
				}
				m.term = &t
				return
			}
			var mpiErr *MPIRuntimeError
			if errors.As(err, &mpiErr) {
				m.term = &Termination{Reason: ReasonMPIError, PC: eip, Msg: err.Error()}
				return
			}
			var seg *SegFaultError
			if errors.As(err, &seg) {
				// The runtime touched a fault-corrupted user buffer.
				m.killAt(eip, SIGSEGV, err.Error())
				return
			}
			m.term = &Termination{Reason: ReasonMPIError, PC: eip, Msg: err.Error()}
		}

	default:
		// An invalid syscall number (possibly fault-corrupted code) is an
		// illegal instruction.
		m.killAt(eip, SIGILL, fmt.Sprintf("invalid syscall %d", int64(sys)))
	}
}

// fprBitsIndex is the micro-register index of F1, used by SysOutFloat to
// emit raw IEEE-754 bits without converting through float64.
const fprBitsIndex = 16 + 1

func (m *Machine) killAt(eip uint64, sig Signal, msg string) {
	m.term = &Termination{Reason: ReasonSignal, Signal: sig, PC: eip, Msg: msg}
}

func (m *Machine) appendConsole(s string) {
	if len(m.console)+len(s) <= maxConsoleBytes {
		m.console = append(m.console, s...)
	}
}

func (m *Machine) appendOutput(b []byte) {
	if len(m.output)+len(b) <= maxOutputBytes {
		m.output = append(m.output, b...)
	}
}
