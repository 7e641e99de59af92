package core

import (
	"fmt"
	"testing"

	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/vm"
)

// parkedPeerProg is a three-rank guest in which, while rank 0 sums its
// buffer (the fork sites), rank 1 is parked in a receive only rank 0 can
// satisfy: rank 0 waits for rank 2 first, which lets rank 1 run into its
// receive before rank 2's message gives rank 0 the baton back.
func parkedPeerProg(t *testing.T) *isa.Program {
	t.Helper()
	I, V, B := lang.I, lang.V, lang.Block
	recv := func(src, tag int64) lang.Stmt {
		return lang.MPIRecv{Buf: V("buf"), Count: I(4), Dtype: int64(isa.TypeInt64), Source: I(src), Tag: I(tag)}
	}
	send := func(dst, tag int64) lang.Stmt {
		return lang.MPISend{Buf: V("buf"), Count: I(4), Dtype: int64(isa.TypeInt64), Dest: I(dst), Tag: I(tag)}
	}
	prog, err := lang.Compile(&lang.Program{Name: "parked_peer", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(4))),
			lang.Let("s", I(0)),
			lang.If{Cond: lang.Eq(lang.RankExpr{}, I(0)), Then: B(
				recv(2, 1),
				lang.For{Var: "i", From: I(0), To: I(4), Body: B(
					lang.Set("s", lang.Add(V("s"), lang.At(V("buf"), V("i")))),
				)},
				lang.SetAt(V("buf"), I(0), V("s")),
				send(1, 3),
			)},
			lang.If{Cond: lang.Eq(lang.RankExpr{}, I(1)), Then: B(
				recv(0, 3),
				lang.OutInt{E: lang.At(V("buf"), I(0))},
			)},
			lang.If{Cond: lang.Eq(lang.RankExpr{}, I(2)), Then: B(
				lang.For{Var: "i", From: I(0), To: I(4), Body: B(lang.SetAt(V("buf"), V("i"), lang.Add(V("i"), I(1))))},
				send(0, 1),
			)},
		),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestForkStopsParkedPeerInsideItsCall: a rank that was parked in an MPI call
// at the fork point is inside that call in the forked world too, before the
// target goes on. When the fault kills the target at once, a from-scratch
// run aborts the parked rank in its receive — the syscall retired, the
// termination at its address — and so must the fork, although the snapshot
// holds the rank rewound to the instruction before.
func TestForkStopsParkedPeerInsideItsCall(t *testing.T) {
	prog := parkedPeerProg(t)
	golden, err := Golden(prog, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	killed := 0
	for n := uint64(1); n <= golden.Counters[0].PerOp[isa.OpLd]; n++ {
		for seed := int64(0); seed < 12; seed++ {
			cfg := RunConfig{Prog: prog, WorldSize: 3, Spec: &Spec{
				Target: "parked_peer", Ops: []isa.Op{isa.OpLd}, TargetRank: 0,
				Cond: Deterministic{N: n}, Bits: 1, Trace: true, Seed: seed,
			}}
			label := fmt.Sprintf("site %d seed %d", n, seed)
			scratch, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := PrefixRun(cfg, ForkSite{Rank: 0, N: n})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			forked, err := RunForked(cfg, ws)
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, label, scratch, forked)
			if ws.machines[1].PausedIn() == isa.SysMPIRecv && scratch.Terms[0].Reason == vm.ReasonSignal {
				killed++
				if scratch.Counters[1].Syscalls != ws.machines[1].Counters().Syscalls+1 {
					t.Errorf("%s: rank 1 retired %d syscalls from scratch, its snapshot %d: it was not aborted inside its receive",
						label, scratch.Counters[1].Syscalls, ws.machines[1].Counters().Syscalls)
				}
			}
		}
	}
	if killed == 0 {
		t.Error("no fault killed rank 0 while rank 1 was parked in its receive: the test exercises nothing")
	}
	t.Logf("%d faults killed the target with its peer parked", killed)
}
