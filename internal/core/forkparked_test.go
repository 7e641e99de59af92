package core

import (
	"fmt"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/tcg"
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
// run aborts the parked rank in its receive — the termination at the
// syscall's address, no syscall retired after the one it is parked in — and
// so must the fork, whose snapshot holds the rank suspended inside the call.
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
			// Rank 1 has run at the fork point only if it is parked in its
			// receive, and an abort carries the address of the call it
			// interrupted (one observed between blocks carries none).
			parked := ws.machines[1].Instructions() > 0
			if parked && scratch.Terms[0].Reason == vm.ReasonSignal && scratch.Terms[1].PC != 0 {
				killed++
				if scratch.Counters[1].Syscalls != ws.machines[1].Counters().Syscalls {
					t.Errorf("%s: rank 1 retired %d syscalls from scratch, %d in its snapshot: it was not parked inside its receive",
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

// TestEveryMPISiteForks: a fork point is wherever the target stands. On every
// rank of three MPI guests, at every site of parked_peer and every 97th and 587th of matvec and clamr_mpi, traced
// and untraced, the world pauses — the other ranks wherever the schedule left
// them, inside an MPI call or not — and a run forked there with a fault at the
// site is its from-scratch twin, field for field.
func TestEveryMPISiteForks(t *testing.T) {
	type guest struct {
		prog   *isa.Program
		size   int
		ops    []isa.Op
		stride uint64
	}
	guests := []guest{{parkedPeerProg(t), 3, []isa.Op{isa.OpLd}, 1}}
	for _, g := range []struct {
		name   string
		stride uint64
	}{{"matvec", 97}, {"clamr_mpi", 587}} {
		app, err := apps.ByName(g.name)
		if err != nil {
			t.Fatal(err)
		}
		guests = append(guests, guest{app.Prog, app.WorldSize, app.DefaultOps, g.stride})
	}
	for _, g := range guests {
		golden, err := Golden(g.prog, g.size, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A fault that hangs the guest ends at a campaign-like budget, not
		// at the vm's default.
		var budget uint64
		for _, c := range golden.Counters {
			budget = max(budget, 4*c.Instructions)
		}
		cache := tcg.NewBaseCache(g.prog)
		sites := 0
		for rank := 0; rank < g.size; rank++ {
			var total uint64
			for _, op := range g.ops {
				total += golden.Counters[rank].PerOp[op]
			}
			for n := uint64(1); n <= total; n += g.stride {
				for _, trace := range []bool{false, true} {
					cfg := RunConfig{Prog: g.prog, WorldSize: g.size, MaxInstructions: budget, BaseCache: cache, Spec: &Spec{
						Target: g.prog.Name, Ops: g.ops, TargetRank: rank,
						Cond: Deterministic{N: n}, Bits: 1, Trace: trace, Seed: int64(n),
					}}
					label := fmt.Sprintf("%s rank %d site %d trace=%v", g.prog.Name, rank, n, trace)
					ws, err := PrefixRun(cfg, ForkSite{Rank: rank, N: n})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					scratch, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					forked, err := RunForked(cfg, ws)
					if err != nil {
						t.Fatal(err)
					}
					sameRun(t, label, scratch, forked)
					sites++
				}
			}
		}
		t.Logf("%s: %d sites forked", g.prog.Name, sites)
	}
}
