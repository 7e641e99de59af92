package vm

import (
	"chaser/internal/isa"
	"chaser/internal/taint"
	"chaser/internal/tcg"
)

// Arena recycles what the machines of a finished run leave behind for the
// machines of the next: the Machine structs with their chain tables, page
// tables, shadows and console and output buffers, and the private pages the
// guests touched first or copied on write. A campaign runs thousands of short
// forked runs, and without it each would allocate all of that again to
// execute a few thousand instructions.
//
// Release is the whole lifetime rule: it takes a machine nothing will touch
// again. An Arena is used by one goroutine at a time; a nil *Arena keeps
// nothing, and its New and NewFromSnapshot allocate as the package's do.
type Arena struct {
	machines []*Machine // released; each keeps the parts Release emptied
	pages    []*memPage // private pages of released machines, contents stale
}

// What an Arena keeps is bounded, so a run that touched many pages leaves
// the garbage collector the rest.
const (
	arenaMachines = 8
	arenaPages    = 64
	// arenaBufBytes bounds a console or output buffer the arena keeps.
	arenaBufBytes = 64 << 10
	// maxRecycledPages bounds a page table a recycled Memory keeps, and
	// maxRecycledBlocks a chain table: a Go map never shrinks.
	maxRecycledPages  = 256
	maxRecycledBlocks = 1024
)

// New is the package's New, on a machine the arena recycled when it has one.
func (a *Arena) New(prog *isa.Program, cfg Config) *Machine {
	m := a.build(prog, cfg, 0)
	m.heapBrk = isa.HeapBase
	m.nextSample = m.sampleIv
	dataSize := uint64(len(prog.Data))
	if dataSize > 0 {
		m.Mem.Map("data", isa.DataBase, (dataSize+PageSize-1)&^uint64(PageSize-1))
		// Initialization faults are impossible: the region was just mapped.
		_ = m.Mem.WriteBytes(isa.DataBase, prog.Data)
	}
	m.Mem.Map("stack", isa.StackTop-isa.StackSize, isa.StackSize)
	m.pc = prog.Entry
	m.regs[tcg.SPReg] = isa.StackTop - 64 // small red zone below the top
	return m
}

// NewFromSnapshot is the package's NewFromSnapshot, on a machine the arena
// recycled when it has one.
func (a *Arena) NewFromSnapshot(prog *isa.Program, snap *Snapshot, cfg Config) *Machine {
	m := a.build(prog, cfg, len(snap.mem.pages))
	m.Mem.load(snap.mem)
	m.TaintEnabled = snap.taintOn
	m.pc, m.flags, m.heapBrk = snap.pc, snap.flags, snap.heapBrk
	// The machine only ever appends to its console and output: it shares the
	// snapshot's until it does, and a recycled buffer serves when there is
	// nothing to share.
	if len(snap.console) > 0 {
		m.console = sealed(snap.console)
	}
	if len(snap.output) > 0 {
		m.output = sealed(snap.output)
	}
	m.counters = snap.counters
	m.forkBase = &snap.counters
	m.waitingIn, m.waitPC = snap.waitingIn, snap.waitPC
	copy(m.regs[:], snap.regs[:])
	if snap.shadow != nil {
		m.Shadow = snap.shadow.Clone()
	}
	// The restored count need not sit on the sampling grid.
	m.nextSample = (m.counters.Instructions/m.sampleIv + 1) * m.sampleIv
	if snap.term != nil {
		tt := *snap.term
		m.term = &tt
	}
	return m
}

// build returns a machine for prog under cfg with its identity, knobs and a
// translator set, an empty Memory (with a page table sized for pages), a
// pristine Shadow, and whatever chain table and buffers the arena recycled.
func (a *Arena) build(prog *isa.Program, cfg Config, pages int) *Machine {
	m := a.machine()
	mem, sh, chains, console, output := m.Mem, m.Shadow, m.chains, m.console, m.output
	if mem == nil {
		mem = &Memory{pages: make(map[uint64]*memPage, pages), nextFrame: 1}
	}
	if sh == nil {
		sh = taint.NewShadow()
	}
	mem.arena = a
	*m = Machine{
		Name:       prog.Name,
		PID:        cfg.PID,
		Rank:       cfg.Rank,
		WorldSize:  cfg.WorldSize,
		Prog:       prog,
		Mem:        mem,
		Trans:      tcg.NewSharedTranslator(prog, cfg.BaseCache),
		Shadow:     sh,
		maxInstr:   cfg.MaxInstructions,
		sampleIv:   cfg.SampleInterval,
		noFastPath: cfg.NoFastPath,
		console:    console,
		output:     output,
		mpi:        cfg.MPI,
		obsReg:     cfg.Obs,
		events:     cfg.Events,
		chains:     chainTable{nodes: chains.nodes, wear: chains.wear},
	}
	m.Trans.AttachObs(cfg.Obs)
	if m.maxInstr == 0 {
		m.maxInstr = DefaultMaxInstructions
	}
	if m.sampleIv == 0 {
		m.sampleIv = DefaultSampleInterval
	}
	if m.WorldSize == 0 {
		m.WorldSize = 1
	}
	return m
}

// machine returns a machine Release emptied, or a new one without parts.
func (a *Arena) machine() *Machine {
	if a == nil || len(a.machines) == 0 {
		return new(Machine)
	}
	n := len(a.machines) - 1
	m := a.machines[n]
	a.machines[n] = nil
	a.machines = a.machines[:n]
	return m
}

// page returns a private page a released machine left, contents stale, or
// nil.
func (a *Arena) page() *memPage {
	if a == nil || len(a.pages) == 0 {
		return nil
	}
	n := len(a.pages) - 1
	p := a.pages[n]
	a.pages[n] = nil
	a.pages = a.pages[:n]
	return p
}

// Release hands the arena a machine of a finished run that nothing will
// touch again: no world will run or abort it, no callback of a watchdog or a
// hub is left to fire on it, and no result shares its memory — results hold
// copies (Output, Console, Counters). The arena keeps the machine's private
// pages (never a sealed one: those belong to snapshots), and the machine
// itself with its page table, its shadow, its chain table and the console and
// output buffers it owns, all emptied; it drops everything else the machine
// referred to — program, translator, hooks, helpers — so a kept machine holds
// nothing of its run alive.
func (a *Arena) Release(m *Machine) {
	mem := m.Mem
	for _, p := range mem.private {
		if len(a.pages) == arenaPages {
			break
		}
		a.pages = append(a.pages, p)
	}
	if len(a.machines) == arenaMachines {
		return
	}
	mem.empty()
	m.Shadow.Recycle()
	nodes, wear := m.chains.nodes, m.chains.wear
	if len(nodes) > maxRecycledBlocks || wear.Remake(len(nodes)) {
		nodes, wear = make(map[*tcg.TB]*chainNode), taint.MapWear{}
	} else {
		clear(nodes)
	}
	*m = Machine{
		Mem:     mem,
		Shadow:  m.Shadow,
		chains:  chainTable{nodes: nodes, wear: wear},
		console: ownedBuf(m.console),
		output:  ownedBuf(m.output),
	}
	a.machines = append(a.machines, m)
}

// ownedBuf returns b emptied when the machine owns it and it is worth
// keeping, nil otherwise. A machine appends to the console and output it
// shares with a snapshot only after copying them, and a shared one is sealed
// (no spare capacity): any buffer with room left is the machine's own.
func ownedBuf(b []byte) []byte {
	if cap(b) == len(b) || cap(b) > arenaBufBytes {
		return nil
	}
	return b[:0]
}
