// Package decaf implements the platform layer Chaser builds on, mirroring
// the DECAF whole-system analysis platform's plugin architecture: loadable
// plugins with init/cleanup lifecycles, a terminal command registry, virtual
// machine introspection (VMI) process-creation events, and global
// tainted-memory callbacks fanned out to every supervised guest.
//
// The correspondence to the paper's Fig. 4:
//
//	plugin_init()              -> Plugin.Init returning *Interface
//	fi_interface_st            -> Interface (terminal commands)
//	inject_fault command       -> Platform.Exec("inject_fault ...")
//	VMI_CREATEPROC_CB          -> RegisterProcCreateCB / CreateProcess
//	DECAF_READ_TAINTMEM_CB     -> RegisterReadTaintCB
//	DECAF_WRITE_TAINTMEM_CB    -> RegisterWriteTaintCB
package decaf

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"chaser/internal/isa"
	"chaser/internal/vm"
)

// ProcInfo describes a guest process observed through VMI.
type ProcInfo struct {
	PID     int
	Name    string
	Rank    int
	Machine *vm.Machine
}

// ProcCreateCB observes process creation (VMI_CREATEPROC_CB).
type ProcCreateCB func(info ProcInfo)

// MemTaintCB observes tainted memory reads/writes in any supervised guest;
// the event names the rank. It is the machine's own record (see vm.Hooks):
// valid during the call, copied by a callback that keeps it. The type is the
// hook's, so that a lone callback is installed as the hook itself and a
// tainted access reaches it in one call.
type MemTaintCB = func(ev *vm.MemTaintEvent)

// SyscallCB observes guest syscalls in any supervised guest.
type SyscallCB func(info ProcInfo, m *vm.Machine, sys isa.Sys)

// Command is a terminal command exported by a plugin.
type Command struct {
	Name    string
	Usage   string
	Handler func(args []string) (string, error)
}

// Interface is what a plugin exports at load time (fi_interface_st).
type Interface struct {
	Name     string
	Commands []Command
}

// Plugin is a loadable analysis module.
type Plugin interface {
	// Init is called at load time; the returned Interface's commands are
	// registered with the platform terminal.
	Init(p *Platform) (*Interface, error)
	// Cleanup is called at unload time.
	Cleanup() error
}

// Platform is the DECAF-like host: it owns plugins, the command terminal,
// and the global callback registries, and it wires callbacks into guests as
// they are created.
type Platform struct {
	mu       sync.Mutex
	plugins  map[string]Plugin
	commands map[string]Command

	procCBs  []ProcCreateCB
	readCBs  []MemTaintCB
	writeCBs []MemTaintCB
	preCBs   []SyscallCB
	postCBs  []SyscallCB

	nextPID int
	procs   []ProcInfo
}

// NewPlatform creates an empty platform.
func NewPlatform() *Platform {
	return &Platform{
		plugins:  make(map[string]Plugin),
		commands: make(map[string]Command),
		nextPID:  100,
	}
}

// LoadPlugin initializes a plugin and registers its terminal commands.
func (p *Platform) LoadPlugin(pl Plugin) error {
	iface, err := pl.Init(p)
	if err != nil {
		return fmt.Errorf("decaf: plugin init: %w", err)
	}
	if iface == nil || iface.Name == "" {
		return fmt.Errorf("decaf: plugin returned no interface")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.plugins[iface.Name]; dup {
		return fmt.Errorf("decaf: plugin %q already loaded", iface.Name)
	}
	p.plugins[iface.Name] = pl
	for _, cmd := range iface.Commands {
		if _, dup := p.commands[cmd.Name]; dup {
			return fmt.Errorf("decaf: command %q already registered", cmd.Name)
		}
		p.commands[cmd.Name] = cmd
	}
	return nil
}

// UnloadPlugin runs a plugin's cleanup and removes it. Its commands remain
// unregistered.
func (p *Platform) UnloadPlugin(name string) error {
	p.mu.Lock()
	pl, ok := p.plugins[name]
	if ok {
		delete(p.plugins, name)
	}
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("decaf: plugin %q not loaded", name)
	}
	return pl.Cleanup()
}

// Exec runs one terminal command line (e.g. "inject_fault matvec fadd ...").
func (p *Platform) Exec(line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", fmt.Errorf("decaf: empty command")
	}
	p.mu.Lock()
	cmd, ok := p.commands[fields[0]]
	p.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("decaf: unknown command %q", fields[0])
	}
	return cmd.Handler(fields[1:])
}

// Commands lists registered command names in sorted order.
func (p *Platform) Commands() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.commands))
	for n := range p.commands {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisterProcCreateCB subscribes to process-creation VMI events.
func (p *Platform) RegisterProcCreateCB(cb ProcCreateCB) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.procCBs = append(p.procCBs, cb)
}

// RegisterReadTaintCB subscribes to tainted-memory reads in all guests.
func (p *Platform) RegisterReadTaintCB(cb MemTaintCB) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.readCBs = append(p.readCBs, cb)
}

// RegisterWriteTaintCB subscribes to tainted-memory writes in all guests.
func (p *Platform) RegisterWriteTaintCB(cb MemTaintCB) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeCBs = append(p.writeCBs, cb)
}

// RegisterPreSyscallCB subscribes to guest syscall entry (Chaser hooks
// MPI_Send here).
func (p *Platform) RegisterPreSyscallCB(cb SyscallCB) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.preCBs = append(p.preCBs, cb)
}

// RegisterPostSyscallCB subscribes to guest syscall return (Chaser hooks
// MPI_Recv here).
func (p *Platform) RegisterPostSyscallCB(cb SyscallCB) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.postCBs = append(p.postCBs, cb)
}

// CreateProcess attaches a machine to the platform: it assigns a PID if the
// machine has none, wires the global callback fan-outs into the machine's
// hooks, and fires the VMI process-creation event. It must be called before
// the machine starts running.
func (p *Platform) CreateProcess(m *vm.Machine) ProcInfo {
	p.mu.Lock()
	if m.PID == 0 {
		m.PID = p.nextPID
		p.nextPID++
	}
	info := ProcInfo{PID: m.PID, Name: m.Name, Rank: m.Rank, Machine: m}
	p.procs = append(p.procs, info)
	procCBs := append([]ProcCreateCB(nil), p.procCBs...)
	p.mu.Unlock()

	// Fire the VMI event first: plugins typically register their taint and
	// syscall callbacks from fi_creation_cb, and those must apply to this
	// process.
	for _, cb := range procCBs {
		cb(info)
	}

	// Snapshot the callback registries into the machine's hooks. The hot
	// paths (tainted loads/stores) then run lock- and allocation-free.
	// Callbacks registered after a process starts do not apply to it.
	p.mu.Lock()
	readCBs := append([]MemTaintCB(nil), p.readCBs...)
	writeCBs := append([]MemTaintCB(nil), p.writeCBs...)
	preCBs := append([]SyscallCB(nil), p.preCBs...)
	postCBs := append([]SyscallCB(nil), p.postCBs...)
	p.mu.Unlock()

	// A hook a creation callback put on this machine alone — Chaser's log,
	// bound to the rank — stays, in front of the platform-wide ones.
	m.Hooks.TaintedMemRead = fanOut(m.Hooks.TaintedMemRead, readCBs)
	m.Hooks.TaintedMemWrite = fanOut(m.Hooks.TaintedMemWrite, writeCBs)
	if len(preCBs) > 0 {
		m.Hooks.PreSyscall = func(mm *vm.Machine, sys isa.Sys) {
			for _, cb := range preCBs {
				cb(info, mm, sys)
			}
		}
	}
	if len(postCBs) > 0 {
		m.Hooks.PostSyscall = func(mm *vm.Machine, sys isa.Sys) {
			for _, cb := range postCBs {
				cb(info, mm, sys)
			}
		}
	}
	return info
}

// fanOut returns the hook that calls own, the machine's own hook if it has
// one, and then cbs in order: nil for none, the callback itself for one.
func fanOut(own MemTaintCB, cbs []MemTaintCB) MemTaintCB {
	if own != nil {
		if len(cbs) == 0 {
			return own
		}
		cbs = append([]MemTaintCB{own}, cbs...)
	}
	switch len(cbs) {
	case 0:
		return nil
	case 1:
		return cbs[0]
	}
	return func(ev *vm.MemTaintEvent) {
		for _, cb := range cbs {
			cb(ev)
		}
	}
}

// Processes returns the processes created so far.
func (p *Platform) Processes() []ProcInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ProcInfo(nil), p.procs...)
}
