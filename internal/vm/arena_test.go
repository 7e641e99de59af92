package vm

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"chaser/internal/asm"
	"chaser/internal/isa"
	"chaser/internal/memtest"
	"chaser/internal/taint"
	"chaser/internal/tcg"
)

// dirtyPages is a guest that fills its first n heap pages with ones, so the
// pages its machine leaves an Arena are anything but zero.
func dirtyPages(t *testing.T, n int) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("dirty", `
main:
    movi r1, `+itoa(int64(n)*PageSize)+`
    syscall alloc
    mov r5, r0
    movi r3, `+itoa(int64(n))+`
    movi r2, -1
loop:
    movi r6, 512
fill:
    st [r5+0], r2
    addi r5, r5, 8
    addi r6, r6, -1
    cmpi r6, 0
    jg fill
    addi r3, r3, -1
    cmpi r3, 0
    jg loop
    movi r1, 0
    syscall exit
`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// forkable fills ten heap pages with a pattern and prints, pauses in front of
// its nop, then writes a word into each of the ten pages (copying it on
// write) and sums three words of each — the written one, a patterned one and
// a zero one — and one word of each of ten heap pages it never touched
// before (touching them first), writes the sum to its output and exits.
func forkable(t *testing.T) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("forkable", `
main:
    movi r1, 81920
    syscall alloc
    mov r5, r0
    mov r7, r0
    movi r3, 10
    movi r2, 1234567
fill:
    st [r5+0], r2
    st [r5+4000], r2
    addi r2, r2, 77
    addi r5, r5, 4096
    addi r3, r3, -1
    cmpi r3, 0
    jg fill
    movi r1, 7
    syscall print_int
    nop
    mov r5, r7
    movi r3, 20
    movi r4, 0
touch:
    movi r6, 9
    st [r5+8], r6
    ld r6, [r5+8]
    add r4, r4, r6
    ld r6, [r5+4000]
    add r4, r4, r6
    ld r6, [r5+16]
    add r4, r4, r6
    addi r5, r5, 4096
    addi r3, r3, -1
    cmpi r3, 0
    jg touch
    mov r1, r4
    syscall out_int
    movi r1, 0
    syscall exit
`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pausedAtNop runs a machine of prog built on a to its first nop and
// snapshots it there.
func pausedAtNop(t *testing.T, a *Arena, prog *isa.Program) (*Machine, *Snapshot) {
	t.Helper()
	m := a.New(prog, Config{})
	m.Trans.SetProbe(tcg.Probe{Ops: tcg.OpSetOf(isa.OpNop), Helper: m.RegisterHelper(func(mm *Machine, op *tcg.Op) {
		mm.PauseAt(op.GuestPC)
	})})
	if term := m.Run(); term.Reason != ReasonPaused {
		t.Fatalf("prefix: %v", term)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return m, snap
}

// runOut runs m to its exit and returns its console and output.
func runOut(t *testing.T, m *Machine) (string, []byte) {
	t.Helper()
	if term := m.Run(); term.Reason != ReasonExited {
		t.Fatalf("%s: %v", m.Name, term)
	}
	return m.Console(), m.Output()
}

// TestArenaPagesAsNew: a fork built on an Arena full of pages a guest filled
// with ones reads what a fork built on nothing does — a page it copies on
// write is the snapshot's page, and a page it touches first is zero. Neither
// the pages a snapshot sealed (its machine went back to the arena) nor the
// snapshot's console, which the fork shares and never writes, are handed to
// the next machine.
func TestArenaPagesAsNew(t *testing.T) {
	prog := forkable(t)
	a := new(Arena)
	prefix, snap := pausedAtNop(t, a, prog)
	wantCon, wantOut := runOut(t, NewFromSnapshot(prog, snap, Config{}))
	if wantCon != "7\n" || len(wantOut) != 8 {
		t.Fatalf("fresh fork printed %q and wrote %d bytes", wantCon, len(wantOut))
	}
	a.Release(prefix)
	if len(a.pages) != 0 {
		t.Fatalf("the arena kept %d pages of a machine whose every page a snapshot sealed", len(a.pages))
	}

	dirty := a.New(dirtyPages(t, 2*arenaPages), Config{})
	runOut(t, dirty)
	a.Release(dirty)
	if len(a.pages) != arenaPages {
		t.Fatalf("the arena kept %d pages of %d touched, want %d", len(a.pages), 2*arenaPages, arenaPages)
	}
	for i := 0; i < 3; i++ {
		f := a.NewFromSnapshot(prog, snap, Config{})
		con, out := runOut(t, f)
		if con != wantCon || !bytes.Equal(out, wantOut) {
			t.Errorf("fork %d on the arena printed %q and wrote %x; on nothing, %q and %x", i, con, out, wantCon, wantOut)
		}
		a.Release(f)
		// A machine that prints from its first instruction on gets any buffer
		// the fork left: the snapshot's, into which two bytes would fit, must
		// not be among them.
		m := a.New(dirtyPages(t, 1), Config{})
		m.appendConsole("8\n")
		a.Release(m)
		if got := string(snap.console); got != "7\n" {
			t.Fatalf("the snapshot's console reads %q after its fork was recycled", got)
		}
	}
}

// TestArenaIdleRetentionBounded: what an idle Arena keeps after a machine
// that touched 500 pages is bounded by its page cap — 64 pages — plus one
// emptied machine, not by what the run touched.
func TestArenaIdleRetentionBounded(t *testing.T) {
	budget := arenaPages*pageBytes + 64<<10
	prog := dirtyPages(t, 500)
	heap := memtest.Live
	a := new(Arena)
	m := a.New(prog, Config{})
	runOut(t, m)
	a.Release(m)
	m = nil
	with := heap()
	runtime.KeepAlive(a)
	a = nil
	without := heap()
	retained := int64(with) - int64(without)
	t.Logf("an idle arena retains %d B after a run that touched 500 pages", retained)
	if retained > budget {
		t.Errorf("an idle arena retains %d B, budget %d", retained, budget)
	}
}

// TestArenaRemakesOutgrownTables: a page table or chain table that one long
// run grew is kept while runs of its size release it, and while fewer than
// taint.MapWearStreak short runs in a row do; the streak's last makes it anew,
// once: the short runs after it keep the table sized for them. Clearing a
// map costs what it ever grew to.
func TestArenaRemakesOutgrownTables(t *testing.T) {
	id := func(m any) uintptr { return reflect.ValueOf(m).Pointer() }
	// remade releases two long runs with short runs between them, then
	// 3·taint.MapWearStreak short runs, and checks which releases made the table
	// anew.
	remade := func(t *testing.T, table func() any, run func(n int)) {
		t.Helper()
		kept := id(table())
		for _, n := range []int{500, 3, 3, 600, 3} {
			run(n)
		}
		if id(table()) != kept {
			t.Fatal("a table long runs grew was made anew before a streak of short runs")
		}
		var at []int
		for i := 2; i <= 3*taint.MapWearStreak; i++ {
			before := id(table())
			run(3)
			if id(table()) != before {
				at = append(at, i)
			}
		}
		if len(at) != 1 || at[0] != taint.MapWearStreak {
			t.Errorf("short runs in a row made the table anew at %v, want only at %d", at, taint.MapWearStreak)
		}
	}
	t.Run("pages", func(t *testing.T) {
		mem := NewMemory()
		remade(t, func() any { return mem.pages }, func(n int) {
			for i := 0; i < min(n, maxRecycledPages); i++ {
				mem.pages[uint64(i)*PageSize] = &memPage{}
			}
			mem.empty()
		})
	})
	t.Run("chains", func(t *testing.T) {
		prog := dirtyPages(t, 1)
		a := new(Arena)
		m := a.New(prog, Config{})
		m.chains.nodes = make(map[*tcg.TB]*chainNode)
		remade(t, func() any { return m.chains.nodes }, func(n int) {
			for i := 0; i < n; i++ {
				m.chains.nodes[&tcg.TB{}] = &chainNode{}
			}
			a.Release(m)
			if m = a.New(prog, Config{}); len(a.machines) != 0 {
				t.Fatal("the arena did not hand the released machine back")
			}
		})
	})
}
