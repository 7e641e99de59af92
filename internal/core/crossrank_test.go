package core

import (
	"math"
	"testing"

	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/tainthub"
	"chaser/internal/vm"
)

// crossProg: rank 0 computes a float sum (fadd), sends it to rank 1; rank 1
// accumulates the received values into its own memory and outputs them.
// With a fault injected into rank 0's fadd and tracing enabled, the taint
// must cross the rank boundary through the TaintHub and keep propagating in
// rank 1.
func crossProg(t *testing.T) *isa.Program {
	t.Helper()
	I, V, B := lang.I, lang.V, lang.Block
	prog, err := lang.Compile(&lang.Program{Name: "cross_app", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.If{
				Cond: lang.Eq(lang.RankExpr{}, I(0)),
				Then: B(
					lang.Let("s", lang.F(0)),
					lang.For{Var: "i", From: I(0), To: I(8), Body: B(
						lang.Set("s", lang.Add(V("s"), lang.F(0.25))),
					)},
					lang.SetAt(V("buf"), I(0), V("s")),
					lang.MPISend{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeFloat64),
						Dest: I(1), Tag: I(3)},
				),
				Else: B(
					lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeFloat64),
						Source: I(0), Tag: I(3)},
					// Use the received value locally so taint keeps moving.
					lang.Let("v", lang.AtF(V("buf"), I(0))),
					lang.Let("w", lang.Mul(V("v"), lang.F(2))),
					lang.SetAt(V("buf"), I(0), V("w")),
					lang.OutFloat{E: lang.AtF(V("buf"), I(0))},
				),
			},
		),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestCrossRankPropagationViaLocalHub(t *testing.T) {
	res, err := Run(RunConfig{
		Prog:      crossProg(t),
		WorldSize: 2,
		Spec: &Spec{
			Target: "cross_app", Ops: []isa.Op{isa.OpFAdd},
			TargetRank: 0,
			Cond:       Deterministic{N: 4},
			Bits:       1, Trace: true, Seed: 11,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Injected() {
		t.Fatal("no injection on rank 0")
	}
	if res.Records[0].Rank != 0 {
		t.Fatalf("injection on rank %d, want 0", res.Records[0].Rank)
	}
	if !res.Trace.Propagated() {
		t.Fatal("taint did not cross rank boundary")
	}
	cross := res.Trace.CrossRank()
	if cross[0].Src != 0 || cross[0].Dst != 1 || cross[0].Tag != 3 {
		t.Errorf("cross record = %+v", cross[0])
	}
	if cross[0].TaintedBytes == 0 {
		t.Error("cross record has no tainted bytes")
	}
	// Rank 1 must have local tainted activity after the message arrived.
	if res.Trace.Reads(1) == 0 {
		t.Error("no tainted reads on rank 1")
	}
	if res.Trace.Writes(1) == 0 {
		t.Error("no tainted writes on rank 1")
	}
	// Hub stats reflect the publish/poll.
	if res.HubStats.Published == 0 || res.HubStats.Hits == 0 {
		t.Errorf("hub stats = %+v", res.HubStats)
	}
}

func TestCrossRankPropagationViaTCPHub(t *testing.T) {
	srv, err := tainthub.NewServer(tainthub.NewLocal(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := tainthub.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	res, err := Run(RunConfig{
		Prog:      crossProg(t),
		WorldSize: 2,
		Hub:       client,
		Spec: &Spec{
			Target: "cross_app", Ops: []isa.Op{isa.OpFAdd},
			TargetRank: 0,
			Cond:       Deterministic{N: 2},
			Bits:       2, Trace: true, Seed: 13,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Injected() || !res.Trace.Propagated() {
		t.Fatal("propagation through TCP hub failed")
	}
	st := client.Stats()
	if st.Published == 0 || st.Hits == 0 {
		t.Errorf("remote hub stats = %+v", st)
	}
}

func TestCleanRunNoHubTraffic(t *testing.T) {
	// Tracing enabled but no injection: sends are clean, so the hub must
	// see no publishes (the efficiency property of the TaintHub design).
	res, err := Run(RunConfig{
		Prog:      crossProg(t),
		WorldSize: 2,
		Spec: &Spec{
			Target: "cross_app", Ops: []isa.Op{isa.OpFAdd},
			TargetRank: 0,
			Cond:       Deterministic{N: 99999}, // never fires
			Bits:       1, Trace: true, Seed: 17,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected() {
		t.Fatal("unexpected injection")
	}
	if res.HubStats.Published != 0 {
		t.Errorf("clean run published %d statuses", res.HubStats.Published)
	}
	if res.Trace.Propagated() {
		t.Error("clean run reported propagation")
	}
	for r, term := range res.Terms {
		if term.Reason != vm.ReasonExited {
			t.Errorf("rank %d: %v", r, term)
		}
	}
}

func TestUntraceedRunSkipsHub(t *testing.T) {
	// Trace disabled: even a tainting injection produces no hub traffic and
	// no taint tracking at all.
	res, err := Run(RunConfig{
		Prog:      crossProg(t),
		WorldSize: 2,
		Spec: &Spec{
			Target: "cross_app", Ops: []isa.Op{isa.OpFAdd},
			TargetRank: 0,
			Cond:       Deterministic{N: 1},
			Bits:       1, Trace: false, Seed: 19,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Injected() {
		t.Fatal("no injection")
	}
	if res.HubStats.Polls != 0 || res.HubStats.Published != 0 {
		t.Errorf("hub used without tracing: %+v", res.HubStats)
	}
	if res.Trace.TotalReads()+res.Trace.TotalWrites() != 0 {
		t.Error("taint events recorded without tracing")
	}
}

// TestHookedMessageBytesRejectsWrappedCounts: the MPI hooks size their taint
// scans from guest registers a fault may have corrupted. A count near 2^61
// times an 8-byte datatype wraps to a small product; the guard must compare
// by division and refuse it, or the scan walks (and allocates) gigabytes.
func TestHookedMessageBytesRejectsWrappedCounts(t *testing.T) {
	const cap8 = maxHookedMessageBytes / 8
	for _, tc := range []struct {
		count int64
		dtype isa.Datatype
		n     uint64
		ok    bool
	}{
		{0, isa.TypeFloat64, 0, true},
		{24, isa.TypeFloat64, 192, true},
		{cap8, isa.TypeInt64, maxHookedMessageBytes, true},
		{cap8 + 1, isa.TypeInt64, 0, false},
		{maxHookedMessageBytes, isa.TypeByte, maxHookedMessageBytes, true},
		{maxHookedMessageBytes + 1, isa.TypeByte, 0, false},
		{-1, isa.TypeByte, 0, false},
		{8, isa.Datatype(99), 0, false},
		{1<<61 + 3, isa.TypeFloat64, 0, false}, // 8*count wraps to 24
		{1 << 62, isa.TypeInt64, 0, false},     // 8*count wraps to 0
		{math.MaxInt64, isa.TypeFloat64, 0, false},
	} {
		n, ok := hookedMessageBytes(tc.count, tc.dtype)
		if n != tc.n || ok != tc.ok {
			t.Errorf("hookedMessageBytes(%d, %s) = %d, %v; want %d, %v", tc.count, tc.dtype, n, ok, tc.n, tc.ok)
		}
	}
}
