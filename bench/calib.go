package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The reference host is two cores of a shared machine, and for minutes at a
// time a neighbour slows it: a fixed golden LUD run then takes 20-50% longer
// in wall clock and in CPU time alike, in bursts of a second or less, while
// a dependent ALU chain or a pointer chase beside it stays within 4%. What
// slows is code that keeps the core's issue ports busy, as an interpreter
// does. The benchmark therefore runs a small interpreter of its own ten
// times a second while the rounds play, and scales each round's times by how
// much slower than on the quiet host that kernel ran during the round. Over
// twelve repetitions that began in such a spell the median round time spread
// 13-22% of its median, scaled 4-8%. The kernel shares no code with the
// program under test, so a change to the program moves the scaled times as
// it moves the raw ones.

const (
	// calibSteps is the kernel's length, about 5 ms.
	calibSteps = 2_000_000
	// calibNominalS is what the kernel takes on the reference host when
	// nothing disturbs it and the workload runs beside it.
	calibNominalS = 0.005
	// calibEvery is how often the kernel runs: a twentieth of one core.
	calibEvery = 100 * time.Millisecond
)

type calibIns struct {
	op, a, b, c uint8
	imm         uint32
}

// calibKernel is a switch-dispatched register machine running a fixed
// pseudo-random program over 64 KiB of memory.
type calibKernel struct {
	prog []calibIns
	mem  []uint64
	reg  [16]uint64
}

func newCalibKernel() *calibKernel {
	k := &calibKernel{prog: make([]calibIns, 4096), mem: make([]uint64, 8<<10)}
	x := uint64(88172645463325252)
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	for i := range k.prog {
		k.prog[i] = calibIns{op: uint8(next(7)), a: uint8(next(16)), b: uint8(next(16)), c: uint8(next(16)), imm: uint32(next(1 << 13))}
	}
	k.run(calibSteps) // touch its memory before anything is timed
	return k
}

func (k *calibKernel) run(steps int) {
	prog, mem, reg := k.prog, k.mem, &k.reg
	mask := uint64(len(mem) - 1)
	pc := 0
	for i := 0; i < steps; i++ {
		in := prog[pc]
		pc++
		if pc == len(prog) {
			pc = 0
		}
		switch in.op {
		case 0:
			reg[in.a] = reg[in.b] + reg[in.c]
		case 1:
			reg[in.a] = reg[in.b] ^ uint64(in.imm)
		case 2:
			reg[in.a] = mem[(reg[in.b]+uint64(in.imm))&mask]
		case 3:
			mem[(reg[in.b]+uint64(in.imm))&mask] = reg[in.a]
		case 4:
			reg[in.a] = reg[in.b]*3 + uint64(in.imm)
		case 5:
			if reg[in.a]&1 == 0 {
				pc = (pc + int(in.imm&63)) % len(prog)
			}
		case 6:
			reg[in.a] = reg[in.b] >> (in.c & 7)
		}
	}
}

// threadCPUSeconds is the calling thread's CPU time. getrusage's
// RUSAGE_THREAD counts in 4 ms ticks on the reference host, so it is
// CLOCK_THREAD_CPUTIME_ID (3 on Linux).
func threadCPUSeconds() float64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// hostSample is one pass of the kernel: when it ended and the CPU time it
// took.
type hostSample struct {
	at   time.Time
	cpuS float64
}

// hostSampler runs the kernel on a thread of its own every calibEvery and
// keeps the thread's CPU time for each pass. CPU time, because the thread
// shares two cores with the workload's and waits for its turn; a neighbour
// inflates CPU time and wall clock alike.
type hostSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []hostSample
}

func startHostSampler() *hostSampler {
	s := &hostSampler{quit: make(chan struct{}), done: make(chan struct{})}
	k := newCalibKernel()
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(calibEvery)
		defer tick.Stop()
		for {
			s.pass(k)
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *hostSampler) pass(k *calibKernel) {
	c0 := threadCPUSeconds()
	k.run(calibSteps)
	s.samples = append(s.samples, hostSample{time.Now(), threadCPUSeconds() - c0})
}

// stop returns the samples; there is at least one.
func (s *hostSampler) stop() hostSamples {
	close(s.quit)
	<-s.done
	return s.samples
}

type hostSamples []hostSample

// between returns the host factor from start to end — the mean CPU time of
// the passes that ended in it over the nominal time: 1 on the quiet reference
// host, 1.3 when it runs 30% slow — and the CPU time those passes took. A
// stretch too short to hold a pass has the factor of all samples.
func (hs hostSamples) between(start, end time.Time) (factor, cpuS float64) {
	n, all := 0, 0.0
	for _, h := range hs {
		all += h.cpuS
		if !h.at.Before(start) && !h.at.After(end) {
			cpuS += h.cpuS
			n++
		}
	}
	if n == 0 {
		return all / float64(len(hs)) / calibNominalS, 0
	}
	return cpuS / float64(n) / calibNominalS, cpuS
}
