package mpi

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/obs"
	"chaser/internal/tcg"
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

// TestWorldStateRoundTrip pauses a world of three ranks where the schedule
// leaves rank 0, a reduction's root, holding rank 1's contribution and waiting
// for rank 2's, rank 1 waiting in a barrier with messages both queued and set
// aside unmatched, and rank 2 — the one that pauses — at the instruction it
// paused in front of. Two worlds restored from the one State (and the
// machines' snapshots) must each run on exactly as the world that never
// paused: a restored world writes nothing of the State, and a world reset
// into the shell of another keeps nothing of it.
func TestWorldStateRoundTrip(t *testing.T) {
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
	reduce := B(
		lang.SetAt(V("contrib"), I(0), lang.Mul(Ad(lang.RankExpr{}, I(1)), I(10))),
		lang.Reduce{SendBuf: V("contrib"), RecvBuf: V("sum"), Count: I(1),
			Dtype: int64(isa.TypeInt64), ReduceOp: int64(isa.ReduceSum), Root: I(0)},
	)
	rank := func(r int64, body ...[]lang.Stmt) lang.Stmt {
		return lang.If{Cond: lang.Eq(lang.RankExpr{}, I(r)), Then: seq(body...)}
	}
	// Rank 0 delivers tags 3 1 2 4 5 and waits in the reduction for rank 1;
	// rank 1 receives tag 1 (setting 3 aside), contributes and waits in the
	// barrier; rank 0 folds that in and waits for rank 2, which pauses in
	// front of its out_int.
	prog := compile(t, &lang.Program{Name: "state", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.Let("contrib", lang.Alloc(I(1))),
			lang.Let("sum", lang.Alloc(I(1))),
			rank(0, send(3), send(1), send(2), send(4), send(5), reduce,
				B(lang.OutInt{E: lang.At(V("sum"), I(0))}, lang.Barrier{})),
			rank(1, recv(1), reduce, B(lang.Barrier{}), recv(3), recv(5), recv(2), recv(4)),
			rank(2, B(lang.OutInt{E: I(9)}), reduce, B(lang.Barrier{})),
		),
	}}})
	want, err := NewWorld(prog, Config{Size: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantTerms := want.Run()

	w, err := NewWorld(prog, Config{Size: 3, Setup: func(rank int, m *vm.Machine) {
		if rank != 2 {
			return
		}
		pause := m.RegisterHelper(func(m *vm.Machine, op *tcg.Op) { m.PauseAt(op.GuestPC) })
		m.Trans.AddHook(func(ins isa.Instr, _ uint64) []tcg.Op {
			if ins.Op != isa.OpSyscall || isa.Sys(ins.Imm) != isa.SysOutInt {
				return nil
			}
			return []tcg.Op{{Kind: tcg.KHelper, Helper: pause}}
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	terms := w.Run()
	if terms[2].Reason != vm.ReasonPaused || terms[0] != (vm.Termination{}) || terms[1] != (vm.Termination{}) {
		t.Fatalf("terminations %v, want rank 2 paused and the others live", terms)
	}
	st := w.State()
	tags := func(q []Message) (out []int) {
		for _, m := range q {
			out = append(out, m.Tag)
		}
		return out
	}
	root, waiter := st.ranks[0], st.ranks[1]
	if root.status != waitRecv || root.wantSrc != 2 || root.step != 2 || binary.LittleEndian.Uint64(root.acc) != 10+20 {
		t.Errorf("reduction root: %+v, want it waiting for rank 2 with 10+20 accumulated", root)
	}
	if waiter.status != waitBarrier || waiter.step != 1 || st.arrived != 1 || st.barrierGen != 0 {
		t.Errorf("rank 1 %+v, barrier %d arrived in generation %d: want rank 1 alone in the first", waiter, st.arrived, st.barrierGen)
	}
	if got := tags(waiter.mailbox); !reflect.DeepEqual(got, []int{2, 4, 5}) {
		t.Errorf("rank 1 mailbox holds tags %v, want [2 4 5]", got)
	}
	if got := tags(waiter.pending); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("rank 1 pending holds tags %v, want [3]", got)
	}
	if st.ranks[2].status != runnable {
		t.Errorf("paused rank %+v, want runnable", st.ranks[2])
	}
	msg := int64(unsafe.Sizeof(Message{}))
	if got, want := st.Bytes(), int64(unsafe.Sizeof(*st))+3*int64(unsafe.Sizeof(rankSnap{}))+4*(msg+8)+8; got != want {
		t.Errorf("state holds %d bytes, want %d: three ranks, four queued messages of 8 bytes and an accumulator of 8", got, want)
	}

	snaps := make([]*vm.Snapshot, 3)
	for r := range snaps {
		if snaps[r], err = w.Machine(r).Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	// Worlds 0 and 1 are new; 2 and 3 are reset into the shell of the paused
	// world w — queues, suspended calls, barrier and all — which world 2 then
	// leaves as it ends.
	for i := 0; i < 4; i++ {
		cfg := Config{Size: 3, State: st, NewMachine: func(r int, mc vm.Config) *vm.Machine {
			return vm.NewFromSnapshot(prog, snaps[r], mc)
		}}
		restored := w
		if i < 2 {
			restored, err = NewWorld(prog, cfg)
		} else {
			err = w.Reset(prog, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		for r := range st.ranks {
			rs, s := &restored.ranks[r], &st.ranks[r]
			if !reflect.DeepEqual(tags(rs.pending), tags(s.pending)) || !reflect.DeepEqual(tags(rs.mailbox.messages()), tags(s.mailbox)) {
				t.Errorf("restored world %d, rank %d: pending tags %v and queued %v, want %v and %v", i, r,
					tags(rs.pending), tags(rs.mailbox.messages()), tags(s.pending), tags(s.mailbox))
			}
		}
		if got := restored.Run(); !reflect.DeepEqual(got, wantTerms) {
			t.Fatalf("restored world %d: %v, want %v", i, got, wantTerms)
		}
		for r := 0; r < 3; r++ {
			g, w := restored.Machine(r).Counters(), want.Machine(r).Counters()
			if !reflect.DeepEqual(restored.Machine(r).Output(), want.Machine(r).Output()) ||
				g.Instructions != w.Instructions || g.Syscalls != w.Syscalls || g.PerOp != w.PerOp {
				t.Errorf("restored world %d, rank %d: output %v, %d instructions, %d syscalls; want %v, %d, %d", i, r,
					restored.Machine(r).Output(), g.Instructions, g.Syscalls, want.Machine(r).Output(), w.Instructions, w.Syscalls)
			}
		}
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
