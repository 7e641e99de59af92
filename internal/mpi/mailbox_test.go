package mpi

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/obs"
	"chaser/internal/vm"
)

func tagged(tag int) *Message { return &Message{Tag: tag} }

// TestMailboxOrderAcrossGrow interleaves deliveries and receives so that the
// ring is wrapped when it has to grow: order must survive every regrowth, and
// the ring must stay as small as the most messages ever in flight ask.
func TestMailboxOrderAcrossGrow(t *testing.T) {
	var mb mailbox
	next, want := 0, 0
	take := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			msg, ok := mb.take()
			if !ok || msg.Tag != want {
				t.Fatalf("took %+v (ok=%v), want tag %d", msg, ok, want)
			}
			want++
		}
	}
	for round := 1; round <= 40; round++ {
		for i := 0; i < round; i++ { // one more in flight every round
			if !mb.put(tagged(next)) {
				t.Fatalf("delivery %d refused with %d queued", next, mb.n)
			}
			next++
		}
		take(round - round/3) // leave some behind so head wanders
	}
	if got := len(mb.ring); got > 512 || got < mb.n {
		t.Errorf("ring of %d slots for %d queued messages", got, mb.n)
	}
	take(mb.n)
	if _, ok := mb.take(); ok {
		t.Error("empty mailbox yielded a message")
	}
	if want != next {
		t.Errorf("received %d of %d messages", want, next)
	}
}

// call is one syscall a rank issued, as a pre-syscall hook saw it.
type call struct {
	rank int
	sys  isa.Sys
}

// flood is a guest whose rank 0 sends n one-word messages (0, 1, 2, ...) to
// rank 1 and then writes a 1; rank 1 runs body.
func flood(t *testing.T, n int64, body []lang.Stmt) *isa.Program {
	return compile(t, &lang.Program{Name: "flood", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.Let("s", I(0)),
			lang.If{
				Cond: lang.Eq(lang.RankExpr{}, I(0)),
				Then: B(
					lang.For{Var: "k", From: I(0), To: I(n), Body: B(
						lang.SetAt(V("buf"), I(0), V("k")),
						lang.MPISend{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeInt64), Dest: I(1), Tag: I(0)},
					)},
					lang.OutInt{E: I(1)},
				),
				Else: body,
			},
		),
	}}})
}

// TestMailboxEagerSendBound pins the eager-send bound at the level of a world:
// mailboxCap messages are buffered, the next send parks the sender, and the
// receiver's first receive lets it through — before the receiver goes on.
func TestMailboxEagerSendBound(t *testing.T) {
	prog := flood(t, mailboxCap+1, B(lang.For{Var: "k", From: I(0), To: I(mailboxCap + 1), Body: B(
		lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeInt64), Source: I(0), Tag: I(0)},
		lang.OutInt{E: lang.At(V("buf"), I(0))},
	)}))
	reg := obs.NewRegistry()
	var w *World
	var calls []call
	w, err := NewWorld(prog, Config{Size: 2, Obs: reg, Setup: func(rank int, m *vm.Machine) {
		m.Hooks.PreSyscall = func(_ *vm.Machine, sys isa.Sys) {
			if sys == isa.SysMPIRecv && len(calls) > 0 && calls[len(calls)-1].rank == 0 {
				// Rank 1's first receive: the hook runs on the rank that
				// holds the baton, so the world's state is its to read.
				if got := w.ranks[1].mailbox.n; got != mailboxCap {
					t.Errorf("%d messages buffered when the receiver starts, want %d", got, mailboxCap)
				}
				if w.ranks[0].status != waitSend {
					t.Errorf("sender status %d when the receiver starts, want parked in its send", w.ranks[0].status)
				}
			}
			if sys != isa.SysAlloc && sys != isa.SysMPIRank {
				calls = append(calls, call{rank, sys})
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for r, term := range w.Run() {
		if term.Reason != vm.ReasonExited {
			t.Fatalf("rank %d: %v", r, term)
		}
	}
	// Rank 0 issues every send before rank 1 runs at all; the first receive
	// makes room, so rank 0 (the lower rank) finishes before rank 1 goes on.
	var want []call
	for i := 0; i < mailboxCap+1; i++ {
		want = append(want, call{0, isa.SysMPISend})
	}
	want = append(want, call{1, isa.SysMPIRecv}, call{0, isa.SysOutInt}, call{0, isa.SysExit}, call{1, isa.SysOutInt})
	if len(calls) < len(want) || !reflect.DeepEqual(calls[:len(want)], want) {
		t.Errorf("schedule around the bound = %v, want %v", calls[mailboxCap-1:min(len(calls), len(want)+2)], want[mailboxCap-1:])
	}
	if got := reg.Histogram("mpi_send_wait_seconds", obs.LatencyBuckets...).Count(); got != 1 {
		t.Errorf("%d sends waited for room, want exactly the one past the bound", got)
	}
	out := w.Machine(1).Output()
	for i := 0; i < mailboxCap+1; i++ {
		if got := binary.LittleEndian.Uint64(out[8*i:]); got != uint64(i) {
			t.Fatalf("receive %d delivered %d", i, got)
		}
	}
}

// spin is a loop no instruction budget of these tests ends.
func spin() lang.Stmt {
	return lang.For{Var: "i", From: I(0), To: I(1 << 40), Body: B(lang.Set("s", Ad(V("s"), I(1))))}
}

// seq concatenates statement lists.
func seq(parts ...[]lang.Stmt) (out []lang.Stmt) {
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func unbounded(int) vm.Config { return vm.Config{MaxInstructions: 1 << 40} }

// TestMailboxBlockedSendWokenByInterrupt floods a rank that never receives: the
// sender parks at the eager bound, the other rank spins with the baton, and
// Interrupt — the one call that reaches a world from outside — ends both.
func TestMailboxBlockedSendWokenByInterrupt(t *testing.T) {
	prog := flood(t, mailboxCap+1, B(lang.OutInt{E: I(0)}, spin()))
	parked := make(chan struct{})
	w, err := NewWorld(prog, Config{Size: 2, Machine: unbounded, Setup: func(rank int, m *vm.Machine) {
		if rank == 1 {
			// Rank 1 runs only once rank 0 cannot.
			m.Hooks.PreSyscall = func(_ *vm.Machine, sys isa.Sys) {
				if sys == isa.SysOutInt {
					close(parked)
				}
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []vm.Termination, 1)
	go func() { done <- w.Run() }()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("sender never parked")
	}
	w.Interrupt(vm.Termination{Reason: vm.ReasonTimeout, Msg: "test deadline"})
	select {
	case terms := <-done:
		for r, term := range terms {
			if term.Reason != vm.ReasonTimeout {
				t.Errorf("rank %d: %v, want the interrupt's timeout", r, term)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Interrupt did not release the parked send")
	}
	if got := w.ranks[1].mailbox.n; got != mailboxCap {
		t.Errorf("%d messages queued, want %d", got, mailboxCap)
	}
}

// TestMailboxQueueSnapshotRoundTrip pauses a world with messages both queued and
// set aside unmatched, captures its queues, and restores them into a second
// world whose receives must find every message, in order.
func TestMailboxQueueSnapshotRoundTrip(t *testing.T) {
	send := func(tag int64) []lang.Stmt {
		return B(
			lang.SetAt(V("buf"), I(0), I(tag*100)),
			lang.MPISend{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeInt64), Dest: I(1), Tag: I(tag)},
		)
	}
	recv := func(tag int64) []lang.Stmt {
		return B(
			lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeInt64), Source: I(0), Tag: I(tag)},
			lang.OutInt{E: lang.At(V("buf"), I(0))},
		)
	}
	// Rank 0 delivers tags 3 1 2 4 5 before rank 1 receives tag 1: tag 3 is
	// set aside as pending, 2 4 5 stay queued. After the second barrier no
	// MPI call is left to run, and rank 0's write is where the world is paused
	// — by a hook on the rank that holds the baton, as a fork-point pause is.
	fill := compile(t, &lang.Program{Name: "fill", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.Let("s", I(0)),
			lang.If{
				Cond: lang.Eq(lang.RankExpr{}, I(0)),
				Then: seq(send(3), send(1), send(2), send(4), send(5), B(lang.Barrier{})),
				Else: seq(B(lang.Barrier{}), recv(1)),
			},
			lang.Barrier{},
			lang.If{Cond: lang.Eq(lang.RankExpr{}, I(0)), Then: B(lang.OutInt{E: I(7)})},
			spin(),
		),
	}}})
	var w *World
	w, err := NewWorld(fill, Config{Size: 2, Machine: unbounded, Setup: func(rank int, m *vm.Machine) {
		if rank == 0 {
			m.Hooks.PreSyscall = func(_ *vm.Machine, sys isa.Sys) {
				if sys == isa.SysOutInt {
					w.Pause(vm.Termination{Reason: vm.ReasonPaused, Msg: "test pause"})
				}
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for r, term := range w.Run() {
		if term.Reason != vm.ReasonPaused {
			t.Fatalf("rank %d: %v, want paused", r, term)
		}
	}
	if w.barrierGen != 2 {
		t.Fatalf("world paused at barrier generation %d, want 2", w.barrierGen)
	}
	if w.PauseDirty() {
		t.Fatal("pause outside every MPI call reported dirty")
	}
	mailboxes, pendings := w.QueueSnapshot()
	tags := func(q []Message) (out []int) {
		for _, m := range q {
			out = append(out, m.Tag)
		}
		return out
	}
	if got := tags(mailboxes[1]); !reflect.DeepEqual(got, []int{2, 4, 5}) {
		t.Fatalf("rank 1 mailbox holds tags %v, want [2 4 5]", got)
	}
	if got := tags(pendings[1]); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("rank 1 pending holds tags %v, want [3]", got)
	}
	if len(mailboxes[0])+len(pendings[0]) != 0 {
		t.Fatalf("rank 0 holds messages: %v %v", mailboxes[0], pendings[0])
	}

	// The restored world receives pending first, then out of queue order.
	drain := compile(t, &lang.Program{Name: "drain", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.If{
				Cond: lang.Eq(lang.RankExpr{}, I(1)),
				Then: seq(recv(3), recv(5), recv(2), recv(4)),
			},
		),
	}}})
	restored, err := NewWorld(drain, Config{Size: 2, Mailboxes: mailboxes, Pendings: pendings})
	if err != nil {
		t.Fatal(err)
	}
	for r, term := range restored.Run() {
		if term.Reason != vm.ReasonExited {
			t.Fatalf("restored rank %d: %v", r, term)
		}
	}
	out := restored.Machine(1).Output()
	for i, want := range []uint64{300, 500, 200, 400} {
		if got := binary.LittleEndian.Uint64(out[8*i:]); got != want {
			t.Errorf("receive %d delivered %d, want %d", i, got, want)
		}
	}
	if mb, pd := restored.QueueSnapshot(); len(mb[1])+len(pd[1]) != 0 {
		t.Errorf("restored world left messages behind: %v %v", mb[1], pd[1])
	}
}

// TestWorldSerialSelfReceiveDeadlocks: a receive that nothing can satisfy
// must be ended as a deadlock in a world of one too, the moment the rank
// suspends.
func TestWorldSerialSelfReceiveDeadlocks(t *testing.T) {
	self := compile(t, &lang.Program{Name: "self", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeInt64), Source: I(0), Tag: I(0)},
		),
	}}})
	_, terms := runWorld(t, self, 1)
	if terms[0].Reason != vm.ReasonMPIError || !strings.Contains(terms[0].Msg, "deadlock detected") {
		t.Fatalf("self-receive: %v, want a deadlock abort", terms[0])
	}
}

// TestWorldInlineRankPanicReraised: a simulator panic in the rank a world of one
// runs inline reaches the caller with the text a rank goroutine's would have.
func TestWorldInlineRankPanicReraised(t *testing.T) {
	prog := compile(t, &lang.Program{Name: "boom", Funcs: []*lang.Func{{
		Name: "main", Body: B(lang.OutInt{E: I(1)}),
	}}})
	w, err := NewWorld(prog, Config{Size: 1, Setup: func(_ int, m *vm.Machine) {
		m.Hooks.PreSyscall = func(*vm.Machine, isa.Sys) { panic("boom") }
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "mpi: rank 0: boom\n") || !strings.Contains(msg, "goroutine ") {
			t.Errorf("re-raised panic = %q, want \"mpi: rank 0: boom\" and a stack", msg)
		}
	}()
	w.Run()
	t.Fatal("Run returned after a simulator panic")
}

// TestWorldSetupAllocBudget pins what a world costs beyond its machines: the
// bytes NewWorld and Run allocate for a guest that exits at once, less the
// bytes the same machines allocate on their own. A mailbox buffered for
// mailboxCap messages up front cost 64 KiB a rank here.
func TestWorldSetupAllocBudget(t *testing.T) {
	prog := compile(t, &lang.Program{Name: "exit", Funcs: []*lang.Func{{
		Name: "main", Body: B(lang.OutInt{E: I(1)}),
	}}})
	allocated := func(f func()) uint64 {
		best := ^uint64(0)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	machine := allocated(func() { vm.New(prog, vm.Config{}).Run() })
	for _, tc := range []struct {
		size   int
		budget uint64
	}{{1, 1024}, {4, 4096}} {
		world := allocated(func() {
			w, err := NewWorld(prog, Config{Size: tc.size})
			if err != nil {
				t.Fatal(err)
			}
			w.Run()
		})
		over := int64(world) - int64(tc.size)*int64(machine)
		t.Logf("size %d: world %d B, %d B a machine, %d B beyond them", tc.size, world, machine, over)
		if over > int64(tc.budget) {
			t.Errorf("a world of %d allocates %d B beyond its machines, budget %d", tc.size, over, tc.budget)
		}
	}
}
