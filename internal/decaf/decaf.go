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
	"slices"
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
// they are created. Plugins and commands are few, so they are kept in load
// order and found by a scan.
type Platform struct {
	mu       sync.Mutex
	plugins  []loadedPlugin
	commands []Command

	procCBs  []ProcCreateCB
	readCBs  []MemTaintCB
	writeCBs []MemTaintCB
	preCBs   []SyscallCB
	postCBs  []SyscallCB

	nextPID int
	// procs are the processes created since the platform was made or last
	// Reset; the slice's spare capacity holds the processes of earlier sets,
	// for CreateProcess to reuse.
	procs []*process
}

// loadedPlugin is a plugin under the name its interface gave.
type loadedPlugin struct {
	name string
	pl   Plugin
}

// process is a created process: its ProcInfo and the syscall hooks
// CreateProcess put on its machine, which fan the platform's syscall
// callbacks out with the info. The hooks are method values made once per
// process struct, which a Reset platform reuses for its next set.
type process struct {
	info      ProcInfo
	pre, post []SyscallCB
	preHook   func(*vm.Machine, isa.Sys)
	postHook  func(*vm.Machine, isa.Sys)
}

func (pr *process) preSyscall(m *vm.Machine, sys isa.Sys) {
	for _, cb := range pr.pre {
		cb(pr.info, m, sys)
	}
}

func (pr *process) postSyscall(m *vm.Machine, sys isa.Sys) {
	for _, cb := range pr.post {
		cb(pr.info, m, sys)
	}
}

// firstPID is the PID CreateProcess gives the first machine that has none.
const firstPID = 100

// NewPlatform creates an empty platform.
func NewPlatform() *Platform {
	return &Platform{nextPID: firstPID}
}

// Reset forgets the processes created so far, so that the platform can
// supervise a new set: every machine it was handed has stopped running and
// nothing will call its hooks again. Plugins, commands and callback
// registries stay as they are, and PIDs start over.
func (p *Platform) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.procs = p.procs[:0]
	p.nextPID = firstPID
}

// plugin returns the loaded plugin of that name, or nil.
func (p *Platform) plugin(name string) Plugin {
	for _, lp := range p.plugins {
		if lp.name == name {
			return lp.pl
		}
	}
	return nil
}

// command returns the registered command of that name.
func (p *Platform) command(name string) (Command, bool) {
	for _, cmd := range p.commands {
		if cmd.Name == name {
			return cmd, true
		}
	}
	return Command{}, false
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
	if p.plugin(iface.Name) != nil {
		return fmt.Errorf("decaf: plugin %q already loaded", iface.Name)
	}
	p.plugins = append(p.plugins, loadedPlugin{name: iface.Name, pl: pl})
	for _, cmd := range iface.Commands {
		if _, dup := p.command(cmd.Name); dup {
			return fmt.Errorf("decaf: command %q already registered", cmd.Name)
		}
		p.commands = append(p.commands, cmd)
	}
	return nil
}

// UnloadPlugin runs a plugin's cleanup and removes it. Its commands stay
// registered.
func (p *Platform) UnloadPlugin(name string) error {
	p.mu.Lock()
	pl := p.plugin(name)
	if pl != nil {
		p.plugins = slices.DeleteFunc(p.plugins, func(lp loadedPlugin) bool { return lp.name == name })
	}
	p.mu.Unlock()
	if pl == nil {
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
	cmd, ok := p.command(fields[0])
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
	for _, cmd := range p.commands {
		names = append(names, cmd.Name)
	}
	slices.Sort(names)
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
	pr := p.newProcess()
	pr.info = ProcInfo{PID: m.PID, Name: m.Name, Rank: m.Rank, Machine: m}
	procCBs := p.procCBs
	p.mu.Unlock()

	// Fire the VMI event first: plugins typically register their taint and
	// syscall callbacks from fi_creation_cb, and those must apply to this
	// process.
	for _, cb := range procCBs {
		cb(pr.info)
	}

	// Bind the registries as they stand into the machine's hooks. The hot
	// paths (tainted loads/stores) then run lock- and allocation-free. A
	// registry is only ever appended to, so the slices taken here are not
	// copied: callbacks registered after a process starts lie past their
	// length and do not apply to it.
	p.mu.Lock()
	readCBs, writeCBs := p.readCBs, p.writeCBs
	pr.pre, pr.post = p.preCBs, p.postCBs
	p.mu.Unlock()

	// A hook a creation callback put on this machine alone — Chaser's log,
	// bound to the rank — stays, in front of the platform-wide ones.
	m.Hooks.TaintedMemRead = fanOut(m.Hooks.TaintedMemRead, readCBs)
	m.Hooks.TaintedMemWrite = fanOut(m.Hooks.TaintedMemWrite, writeCBs)
	if len(pr.pre) > 0 {
		m.Hooks.PreSyscall = pr.preHook
	}
	if len(pr.post) > 0 {
		m.Hooks.PostSyscall = pr.postHook
	}
	return pr.info
}

// newProcess appends a process to procs, reusing one an earlier set left in
// the spare capacity. It is called with mu held.
func (p *Platform) newProcess() *process {
	n := len(p.procs)
	if n < cap(p.procs) {
		if pr := p.procs[:n+1][n]; pr != nil {
			p.procs = p.procs[:n+1]
			return pr
		}
	}
	pr := new(process)
	pr.preHook, pr.postHook = pr.preSyscall, pr.postSyscall
	p.procs = append(p.procs, pr)
	return pr
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
	out := make([]ProcInfo, len(p.procs))
	for i, pr := range p.procs {
		out[i] = pr.info
	}
	return out
}
