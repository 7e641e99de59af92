package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/vm"
)

// dispatchCounts is what a rank's interpreter reports about its dispatch: the
// retired instructions, the blocks executed, how many of them were reached
// through a chained edge and how many ran on the taint-free copy of the loop,
// and a digest of the per-opcode histogram.
type dispatchCounts struct {
	instrs, tbs, chained, fast, perOp uint64
}

func countsOf(c vm.Counters) dispatchCounts {
	h := fnv.New64a()
	for op, n := range c.PerOp {
		if n != 0 {
			fmt.Fprintf(h, "%d:%d;", op, n)
		}
	}
	return dispatchCounts{c.Instructions, c.TBsExecuted, c.ChainedTBs, c.FastPathTBs, h.Sum64()}
}

// pinnedDispatch holds, per app and run shape, each rank's dispatch counts.
// The shapes: golden; golden under NoFastPath; traced with an identity fault
// (taint seeded mid-block, values untouched), from scratch; the same run
// forked from a prefix run.
var pinnedDispatch = map[string][]dispatchCounts{
	"lud": {
		{241228, 20951, 20870, 20951, 0x6267dec85c8b0b22},
		{241228, 20951, 20870, 0, 0x6267dec85c8b0b22},
		{241228, 20951, 20861, 3086, 0x6267dec85c8b0b22},
		{241228, 20952, 20849, 3087, 0x6267dec85c8b0b22},
	},
	"matvec": {
		{20574, 1338, 1297, 1338, 0x9447acc79c17e2cd},
		{5282, 425, 401, 425, 0x49b00637343974c8},
		{5282, 425, 401, 425, 0x49b00637343974c8},
		{5282, 425, 401, 425, 0x49b00637343974c8},
		{20574, 1338, 1297, 0, 0x9447acc79c17e2cd},
		{5282, 425, 401, 0, 0x49b00637343974c8},
		{5282, 425, 401, 0, 0x49b00637343974c8},
		{5282, 425, 401, 0, 0x49b00637343974c8},
		{20574, 1338, 1290, 1337, 0x9447acc79c17e2cd},
		{5282, 425, 401, 425, 0x49b00637343974c8},
		{5282, 425, 401, 425, 0x49b00637343974c8},
		{5282, 425, 401, 425, 0x49b00637343974c8},
		{20574, 1339, 1283, 1338, 0x9447acc79c17e2cd},
		{5282, 425, 401, 425, 0x49b00637343974c8},
		{5282, 425, 401, 425, 0x49b00637343974c8},
		{5282, 425, 401, 425, 0x49b00637343974c8},
	},
	"bfs": {
		{86070, 9865, 9822, 9865, 0x52bee70e51740236},
		{86070, 9865, 9822, 0, 0x52bee70e51740236},
		{86070, 9865, 9815, 9864, 0x52bee70e51740236},
		{86070, 9866, 9808, 9865, 0x52bee70e51740236},
	},
	"clamr_mpi": {
		{57008, 3158, 3059, 3158, 0xd522549571e5621d},
		{57028, 3146, 3043, 3146, 0x433cce8c45c4a309},
		{57018, 3148, 3046, 3148, 0xad914217c76163e},
		{57008, 3158, 3059, 3158, 0xd522549571e5621d},
		{57008, 3158, 3059, 0, 0xd522549571e5621d},
		{57028, 3146, 3043, 0, 0x433cce8c45c4a309},
		{57018, 3148, 3046, 0, 0xad914217c76163e},
		{57008, 3158, 3059, 0, 0xd522549571e5621d},
		{57008, 3158, 3017, 582, 0xd522549571e5621d},
		{57028, 3146, 3043, 1708, 0x433cce8c45c4a309},
		{57018, 3148, 3046, 3148, 0xad914217c76163e},
		{57008, 3158, 3059, 1386, 0xd522549571e5621d},
		{57008, 3158, 2994, 582, 0xd522549571e5621d},
		{57028, 3146, 3017, 1708, 0x433cce8c45c4a309},
		{57018, 3148, 3020, 3148, 0xad914217c76163e},
		{57008, 3158, 3053, 1386, 0xd522549571e5621d},
	},
}

// TestDispatchCountsPinned pins the interpreter's dispatch accounting across
// the handoff from the taint-free copy of the loop to the taint copy: on every
// rank of four guests, golden, under NoFastPath, traced with an identity
// fault and that run forked, the retired instructions, executed and chained
// blocks, fast-path blocks and per-opcode counts equal the recorded ones. A
// change to where a block is credited, when an edge is chained or which copy
// runs a block moves one of them.
func TestDispatchCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		app  string
		n    uint64 // the identity fault's site on rank 0
		fork uint64 // the forked run's fork site
	}{
		{"lud", 14000, 7000},
		{"matvec", 796, 400},
		{"bfs", 6000, 3000},
		{"clamr_mpi", 1000, 500},
	} {
		t.Run(tc.app, func(t *testing.T) {
			app, err := apps.ByName(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			cfg := RunConfig{
				Prog: app.Prog, WorldSize: app.WorldSize,
				Spec: &Spec{
					Target: app.Name, Ops: app.DefaultOps, TargetRank: 0,
					Cond: Deterministic{N: tc.n}, Inj: IdentityInjector{Bits: 1}, Seed: 7, Trace: true,
				},
			}
			golden, err := Golden(app.Prog, app.WorldSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := Run(RunConfig{Prog: app.Prog, WorldSize: app.WorldSize, NoFastPath: true})
			if err != nil {
				t.Fatal(err)
			}
			scratch, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := PrefixRun(cfg, ForkSite{Rank: 0, N: tc.fork})
			if err != nil {
				t.Fatal(err)
			}
			forked, err := RunForked(cfg, ws)
			if err != nil {
				t.Fatal(err)
			}
			if !scratch.Injected() || !forked.Injected() {
				t.Fatal("the identity fault did not fire")
			}
			var got []dispatchCounts
			for _, res := range []*RunResult{golden, slow, scratch, forked} {
				for _, c := range res.Counters {
					got = append(got, countsOf(c))
				}
			}
			want := pinnedDispatch[tc.app]
			if len(got) != len(want) {
				t.Fatalf("%d ranks' counts, want %d; got:\n%s", len(got), len(want), literal(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("run %d rank %d: got %+v, want %+v", i/app.WorldSize, i%app.WorldSize, got[i], want[i])
				}
			}
			if t.Failed() {
				t.Logf("got:\n%s", literal(got))
			}
		})
	}
}

// literal formats counts as the Go literal pinnedDispatch holds.
func literal(cs []dispatchCounts) string {
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "\t\t{%d, %d, %d, %d, %#x},\n", c.instrs, c.tbs, c.chained, c.fast, c.perOp)
	}
	return b.String()
}
