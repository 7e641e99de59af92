package decaf

import (
	"errors"
	"strings"
	"testing"

	"chaser/internal/asm"
	"chaser/internal/isa"
	"chaser/internal/tcg"
	"chaser/internal/vm"
)

type fakePlugin struct {
	name      string
	initErr   error
	cleanedUp bool
	log       []string
}

func (f *fakePlugin) Init(p *Platform) (*Interface, error) {
	if f.initErr != nil {
		return nil, f.initErr
	}
	return &Interface{
		Name: f.name,
		Commands: []Command{{
			Name:  f.name + "_cmd",
			Usage: f.name + "_cmd <args>",
			Handler: func(args []string) (string, error) {
				f.log = append(f.log, strings.Join(args, " "))
				return "ok:" + strings.Join(args, ","), nil
			},
		}},
	}, nil
}

func (f *fakePlugin) Cleanup() error {
	f.cleanedUp = true
	return nil
}

func TestLoadPluginAndExec(t *testing.T) {
	p := NewPlatform()
	pl := &fakePlugin{name: "fi"}
	if err := p.LoadPlugin(pl); err != nil {
		t.Fatal(err)
	}
	out, err := p.Exec("fi_cmd matvec fadd 1000")
	if err != nil {
		t.Fatal(err)
	}
	if out != "ok:matvec,fadd,1000" {
		t.Errorf("out = %q", out)
	}
	if len(pl.log) != 1 || pl.log[0] != "matvec fadd 1000" {
		t.Errorf("log = %v", pl.log)
	}
	if got := p.Commands(); len(got) != 1 || got[0] != "fi_cmd" {
		t.Errorf("commands = %v", got)
	}
}

func TestLoadPluginErrors(t *testing.T) {
	p := NewPlatform()
	if err := p.LoadPlugin(&fakePlugin{name: "x", initErr: errors.New("boom")}); err == nil {
		t.Error("init error swallowed")
	}
	if err := p.LoadPlugin(&fakePlugin{name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadPlugin(&fakePlugin{name: "a"}); err == nil {
		t.Error("duplicate plugin accepted")
	}
}

func TestUnloadPlugin(t *testing.T) {
	p := NewPlatform()
	pl := &fakePlugin{name: "u"}
	if err := p.LoadPlugin(pl); err != nil {
		t.Fatal(err)
	}
	if err := p.UnloadPlugin("u"); err != nil {
		t.Fatal(err)
	}
	if !pl.cleanedUp {
		t.Error("cleanup not called")
	}
	if err := p.UnloadPlugin("u"); err == nil {
		t.Error("double unload succeeded")
	}
}

func TestExecErrors(t *testing.T) {
	p := NewPlatform()
	if _, err := p.Exec(""); err == nil {
		t.Error("empty command accepted")
	}
	if _, err := p.Exec("nope"); err == nil {
		t.Error("unknown command accepted")
	}
}

func TestVMIProcessCreation(t *testing.T) {
	p := NewPlatform()
	var seen []ProcInfo
	p.RegisterProcCreateCB(func(info ProcInfo) { seen = append(seen, info) })

	prog, err := asm.Assemble("target_app", "main:\n hlt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog, vm.Config{})
	info := p.CreateProcess(m)
	if info.PID == 0 || info.Name != "target_app" {
		t.Errorf("info = %+v", info)
	}
	if len(seen) != 1 || seen[0].PID != info.PID {
		t.Errorf("seen = %+v", seen)
	}
	if got := p.Processes(); len(got) != 1 {
		t.Errorf("processes = %+v", got)
	}
	// PIDs are unique.
	m2 := vm.New(prog, vm.Config{})
	info2 := p.CreateProcess(m2)
	if info2.PID == info.PID {
		t.Error("duplicate PID")
	}
}

func TestTaintCallbacksFanOut(t *testing.T) {
	p := NewPlatform()
	var reads, writes int
	// Callbacks registered from within the proc-create callback must apply
	// (the fi_creation_cb pattern). Two read callbacks fan out; the lone
	// write callback is the machine's hook itself.
	p.RegisterProcCreateCB(func(info ProcInfo) {
		for i := 0; i < 2; i++ {
			p.RegisterReadTaintCB(func(ev *vm.MemTaintEvent) {
				if ev.Rank != info.Rank || ev.Write {
					t.Errorf("read cb event = %+v", ev)
				}
				reads++
			})
		}
		p.RegisterWriteTaintCB(func(ev *vm.MemTaintEvent) { writes++ })
	})

	prog, err := asm.Assemble("t", `
main:
    movi r1, 64
    syscall alloc
    movi r2, 5
    add r3, r2, r2
    st [r0+0], r3
    ld r4, [r0+0]
    hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog, vm.Config{})
	m.TaintEnabled = true
	// Seed taint on r2 before the add executes, via instrumentation.
	id := m.RegisterHelper(func(mm *vm.Machine, op *tcg.Op) {
		mm.Shadow.SetRegMask(tcg.GPR(isa.R2), 0xff)
	})
	m.Trans.AddHook(func(ins isa.Instr, pc uint64) []tcg.Op {
		if ins.Op == isa.OpAdd {
			return []tcg.Op{{Kind: tcg.KHelper, Helper: id}}
		}
		return nil
	})
	p.CreateProcess(m)
	if term := m.Run(); term.Reason != vm.ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if reads != 2 || writes != 1 {
		t.Errorf("reads = %d, writes = %d; want 2 (one load, two callbacks), 1", reads, writes)
	}
}

func TestSyscallCallbacks(t *testing.T) {
	p := NewPlatform()
	var pre, post []isa.Sys
	p.RegisterPreSyscallCB(func(info ProcInfo, m *vm.Machine, sys isa.Sys) { pre = append(pre, sys) })
	p.RegisterPostSyscallCB(func(info ProcInfo, m *vm.Machine, sys isa.Sys) { post = append(post, sys) })

	prog, err := asm.Assemble("t", `
main:
    movi r1, 5
    syscall print_int
    movi r1, 0
    syscall exit
`)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog, vm.Config{})
	p.CreateProcess(m)
	if term := m.Run(); term.Reason != vm.ReasonExited {
		t.Fatalf("term = %v", term)
	}
	if len(pre) != 2 || pre[0] != isa.SysPrintInt || pre[1] != isa.SysExit {
		t.Errorf("pre = %v", pre)
	}
	// exit terminates before the post hook.
	if len(post) != 1 || post[0] != isa.SysPrintInt {
		t.Errorf("post = %v", post)
	}
}
