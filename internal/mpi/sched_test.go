package mpi

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/obs"
	"chaser/internal/vm"
)

// expectDeadlock runs a two-rank guest that cannot finish and requires the
// world to end, within three seconds, with the deadlock termination on every
// rank that was still alive, one mpi_deadlocks_total and one world_deadlock
// event. (At the commit before the baton a world with a rank in MPI_Barrier
// was never found deadlocked, and Run did not return.)
func expectDeadlock(t *testing.T, prog *isa.Program, live ...int) {
	t.Helper()
	reg, sink := obs.NewRegistry(), obs.NewSink(0)
	w, err := NewWorld(prog, Config{Size: 2, Obs: reg, Events: sink})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []vm.Termination, 1)
	go func() { done <- w.Run() }()
	var terms []vm.Termination
	select {
	case terms = <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("the deadlocked world did not end")
	}
	for _, r := range live {
		if terms[r].Reason != vm.ReasonMPIError || terms[r].Msg != "deadlock detected: all live ranks blocked in MPI" {
			t.Errorf("rank %d: %v, want the deadlock termination", r, terms[r])
		}
	}
	if got := reg.Counter("mpi_deadlocks_total").Value(); got != 1 {
		t.Errorf("mpi_deadlocks_total = %d, want 1", got)
	}
	events, _ := sink.Since(0, 100)
	n := 0
	for _, ev := range events {
		if ev.Type == "world_deadlock" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d world_deadlock events, want 1 (events: %v)", n, events)
	}
}

// TestDeadlockRankInBarrier: rank 1 receives from rank 0, which goes straight
// to the barrier — what a fault that skips a send leaves behind.
func TestDeadlockRankInBarrier(t *testing.T) {
	expectDeadlock(t, compile(t, &lang.Program{Name: "skipped_send", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.If{Cond: lang.Eq(lang.RankExpr{}, I(1)), Then: B(
				lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeInt64), Source: I(0), Tag: I(0)},
			)},
			lang.Barrier{},
		),
	}}}), 0, 1)
}

// TestDeadlockPeerExitedWithoutSending: rank 0 exits cleanly, so nothing
// aborts rank 1, whose receive nobody is left to satisfy.
func TestDeadlockPeerExitedWithoutSending(t *testing.T) {
	expectDeadlock(t, compile(t, &lang.Program{Name: "silent_exit", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.If{Cond: lang.Eq(lang.RankExpr{}, I(1)), Then: B(
				lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeInt64), Source: I(0), Tag: I(0)},
			)},
		),
	}}}), 1)
}

// schedule runs a world and returns the (rank, syscall) sequence it executed,
// as pre-syscall hooks saw it (a call a rank waits in is seen once, when the
// rank enters it).
func schedule(t *testing.T, prog *isa.Program, size int) []call {
	t.Helper()
	var calls []call
	w, err := NewWorld(prog, Config{Size: size, Setup: func(rank int, m *vm.Machine) {
		m.Hooks.PreSyscall = func(_ *vm.Machine, sys isa.Sys) { calls = append(calls, call{rank, sys}) }
	}})
	if err != nil {
		t.Fatal(err)
	}
	for r, term := range w.Run() {
		if term.Reason != vm.ReasonExited {
			t.Fatalf("rank %d: %v", r, term)
		}
	}
	return calls
}

// guestFile compiles one of the example guest programs.
func guestFile(t *testing.T, name string) *isa.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "guest_programs", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.ParseAndCompile(strings.TrimSuffix(name, ".gl"), string(src))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestScheduleDeterministic: the order in which a world's ranks execute their
// syscalls is a function of the guest — the same over twenty repetitions,
// whatever number of cores the Go scheduler has to play with.
func TestScheduleDeterministic(t *testing.T) {
	type guest struct {
		name string
		prog *isa.Program
		size int
	}
	guests := []guest{
		{"ring.gl", guestFile(t, "ring.gl"), 4},
		{"pi.gl", guestFile(t, "pi.gl"), 1},
	}
	for _, name := range []string{"matvec", "clamr_mpi"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		guests = append(guests, guest{name, app.Prog, app.WorldSize})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range guests {
		var want []call
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 20; rep++ {
				got := schedule(t, g.prog, g.size)
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: GOMAXPROCS=%d repetition %d: %s", g.name, procs, rep, firstDifference(got, want))
				}
			}
		}
		ranks := map[int]bool{}
		for _, c := range want {
			ranks[c.rank] = true
		}
		if len(ranks) != g.size {
			t.Errorf("%s: %d of %d ranks issued a syscall", g.name, len(ranks), g.size)
		}
		t.Logf("%s: %d syscalls over %d ranks", g.name, len(want), g.size)
	}
}

func firstDifference(got, want []call) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("syscall %d is rank %d's %s, was rank %d's %s", i, got[i].rank, got[i].sys, want[i].rank, want[i].sys)
		}
	}
	return fmt.Sprintf("%d syscalls, were %d", len(got), len(want))
}

// TestScheduleLowestRankFirst pins the rule on a guest small enough to read:
// rank 1 cannot run until rank 0 waits, and rank 0 goes on as soon as what it
// waits for has happened — before rank 1 does.
func TestScheduleLowestRankFirst(t *testing.T) {
	got := schedule(t, pingProg(t), 2)
	var mpi []call
	for _, c := range got {
		if c.sys == isa.SysMPISend || c.sys == isa.SysMPIRecv || c.sys == isa.SysExit {
			mpi = append(mpi, c)
		}
	}
	// ping: rank 0 sends and receives the reply; rank 1 receives and replies.
	want := []call{
		{0, isa.SysMPISend}, {0, isa.SysMPIRecv}, // rank 0 parks in its receive
		{1, isa.SysMPIRecv}, {1, isa.SysMPISend}, // the reply readies rank 0 ...
		{0, isa.SysExit}, {1, isa.SysExit}, // ... which ends before rank 1 goes on
	}
	if !reflect.DeepEqual(mpi, want) {
		t.Errorf("schedule = %v, want %v", mpi, want)
	}
}
