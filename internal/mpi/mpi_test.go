package mpi

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/obs"
	"chaser/internal/vm"
)

func compile(t *testing.T, p *lang.Program) *isa.Program {
	t.Helper()
	prog, err := lang.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func runWorld(t *testing.T, prog *isa.Program, size int) (*World, []vm.Termination) {
	t.Helper()
	w, err := NewWorld(prog, Config{Size: size})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w, w.Run()
}

// Shorthand AST helpers.
var (
	I  = lang.I
	V  = lang.V
	B  = lang.Block
	Ad = lang.Add
)

func TestRankAndSize(t *testing.T) {
	prog := compile(t, &lang.Program{Name: "ranks", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.OutInt{E: lang.RankExpr{}},
			lang.OutInt{E: lang.SizeExpr{}},
		),
	}}})
	w, terms := runWorld(t, prog, 4)
	for r, term := range terms {
		if term.Reason != vm.ReasonExited || term.Code != 0 {
			t.Fatalf("rank %d: %v", r, term)
		}
		out := w.Machine(r).Output()
		if got := int64(binary.LittleEndian.Uint64(out)); got != int64(r) {
			t.Errorf("rank %d reported rank %d", r, got)
		}
		if got := int64(binary.LittleEndian.Uint64(out[8:])); got != 4 {
			t.Errorf("rank %d reported size %d", r, got)
		}
	}
}

// pingProg: rank 0 sends [v, v*2, v*3] to rank 1; rank 1 echoes the sum back.
func pingProg(t *testing.T) *isa.Program {
	return compile(t, &lang.Program{Name: "ping", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(3))),
			lang.If{
				Cond: lang.Eq(lang.RankExpr{}, I(0)),
				Then: B(
					lang.SetAt(V("buf"), I(0), I(7)),
					lang.SetAt(V("buf"), I(1), I(14)),
					lang.SetAt(V("buf"), I(2), I(21)),
					lang.MPISend{Buf: V("buf"), Count: I(3), Dtype: int64(isa.TypeInt64), Dest: I(1), Tag: I(5)},
					lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeInt64), Source: I(1), Tag: I(6)},
					lang.OutInt{E: lang.At(V("buf"), I(0))},
				),
				Else: B(
					lang.MPIRecv{Buf: V("buf"), Count: I(3), Dtype: int64(isa.TypeInt64), Source: I(0), Tag: I(5)},
					lang.Let("sum", Ad(Ad(lang.At(V("buf"), I(0)), lang.At(V("buf"), I(1))), lang.At(V("buf"), I(2)))),
					lang.SetAt(V("buf"), I(0), V("sum")),
					lang.MPISend{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeInt64), Dest: I(0), Tag: I(6)},
				),
			},
		),
	}}})
}

func TestSendRecvPingPong(t *testing.T) {
	w, terms := runWorld(t, pingProg(t), 2)
	for r, term := range terms {
		if term.Reason != vm.ReasonExited {
			t.Fatalf("rank %d: %v", r, term)
		}
	}
	out := w.Machine(0).Output()
	if got := int64(binary.LittleEndian.Uint64(out)); got != 42 {
		t.Errorf("echoed sum = %d, want 42", got)
	}
}

func TestBarrierAndBcast(t *testing.T) {
	prog := compile(t, &lang.Program{Name: "bcast", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(2))),
			lang.If{
				Cond: lang.Eq(lang.RankExpr{}, I(0)),
				Then: B(
					lang.SetAt(V("buf"), I(0), I(11)),
					lang.SetAt(V("buf"), I(1), I(22)),
				),
			},
			lang.Barrier{},
			lang.Bcast{Buf: V("buf"), Count: I(2), Dtype: int64(isa.TypeInt64), Root: I(0)},
			lang.Barrier{},
			lang.OutInt{E: Ad(lang.At(V("buf"), I(0)), lang.At(V("buf"), I(1)))},
		),
	}}})
	w, terms := runWorld(t, prog, 4)
	for r, term := range terms {
		if term.Reason != vm.ReasonExited {
			t.Fatalf("rank %d: %v", r, term)
		}
		out := w.Machine(r).Output()
		if got := int64(binary.LittleEndian.Uint64(out)); got != 33 {
			t.Errorf("rank %d got %d, want 33", r, got)
		}
	}
}

func TestReduceSum(t *testing.T) {
	prog := compile(t, &lang.Program{Name: "reduce", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("send", lang.Alloc(I(2))),
			lang.Let("recv", lang.Alloc(I(2))),
			lang.SetAt(V("send"), I(0), Ad(lang.RankExpr{}, I(1))), // 1,2,3,4
			lang.SetAt(V("send"), I(1), lang.Mul(lang.RankExpr{}, I(10))),
			lang.Reduce{SendBuf: V("send"), RecvBuf: V("recv"), Count: I(2),
				Dtype: int64(isa.TypeInt64), ReduceOp: int64(isa.ReduceSum), Root: I(0)},
			lang.If{Cond: lang.Eq(lang.RankExpr{}, I(0)), Then: B(
				lang.OutInt{E: lang.At(V("recv"), I(0))}, // 10
				lang.OutInt{E: lang.At(V("recv"), I(1))}, // 0+10+20+30=60
			)},
		),
	}}})
	w, terms := runWorld(t, prog, 4)
	for r, term := range terms {
		if term.Reason != vm.ReasonExited {
			t.Fatalf("rank %d: %v", r, term)
		}
	}
	out := w.Machine(0).Output()
	if got := int64(binary.LittleEndian.Uint64(out)); got != 10 {
		t.Errorf("reduce[0] = %d, want 10", got)
	}
	if got := int64(binary.LittleEndian.Uint64(out[8:])); got != 60 {
		t.Errorf("reduce[1] = %d, want 60", got)
	}
}

func TestReduceFloatMaxMin(t *testing.T) {
	mk := func(op int64) *isa.Program {
		return compile(t, &lang.Program{Name: "reducef", Funcs: []*lang.Func{{
			Name: "main",
			Body: B(
				lang.Let("send", lang.Alloc(I(1))),
				lang.Let("recv", lang.Alloc(I(1))),
				lang.SetAt(V("send"), I(0), lang.ToFloat(lang.RankExpr{})),
				lang.Reduce{SendBuf: V("send"), RecvBuf: V("recv"), Count: I(1),
					Dtype: int64(isa.TypeFloat64), ReduceOp: op, Root: I(0)},
				lang.If{Cond: lang.Eq(lang.RankExpr{}, I(0)), Then: B(
					lang.OutFloat{E: lang.AtF(V("recv"), I(0))},
				)},
			),
		}}})
	}
	for _, tt := range []struct {
		op   isa.ReduceOp
		want float64
	}{{isa.ReduceMax, 3}, {isa.ReduceMin, 0}, {isa.ReduceSum, 6}} {
		w, terms := runWorld(t, mk(int64(tt.op)), 4)
		for r, term := range terms {
			if term.Reason != vm.ReasonExited {
				t.Fatalf("%v rank %d: %v", tt.op, r, term)
			}
		}
		out := w.Machine(0).Output()
		bits := binary.LittleEndian.Uint64(out)
		if got := float64frombits(bits); got != tt.want {
			t.Errorf("%v = %v, want %v", tt.op, got, tt.want)
		}
	}
}

func float64frombits(b uint64) float64 {
	return mathFloat64frombits(b)
}

func TestInvalidArgsAreMPIErrors(t *testing.T) {
	tests := []struct {
		name string
		send lang.Stmt
		sub  string
	}{
		{"bad dest", lang.MPISend{Buf: V("buf"), Count: I(1), Dtype: 1, Dest: I(99), Tag: I(0)}, "invalid rank"},
		{"negative dest", lang.MPISend{Buf: V("buf"), Count: I(1), Dtype: 1, Dest: I(-2), Tag: I(0)}, "invalid rank"},
		{"bad count", lang.MPISend{Buf: V("buf"), Count: I(-1), Dtype: 1, Dest: I(1), Tag: I(0)}, "invalid count"},
		{"bad dtype", lang.MPISend{Buf: V("buf"), Count: I(1), Dtype: 9, Dest: I(1), Tag: I(0)}, "invalid datatype"},
		{"bad tag", lang.MPISend{Buf: V("buf"), Count: I(1), Dtype: 1, Dest: I(1), Tag: I(-3)}, "invalid tag"},
		{"send self", lang.MPISend{Buf: V("buf"), Count: I(1), Dtype: 1, Dest: I(0), Tag: I(0)}, "send to self"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			prog := compile(t, &lang.Program{Name: "bad", Funcs: []*lang.Func{{
				Name: "main",
				Body: B(
					lang.Let("buf", lang.Alloc(I(1))),
					lang.If{Cond: lang.Eq(lang.RankExpr{}, I(0)), Then: B(tt.send)},
				),
			}}})
			_, terms := runWorld(t, prog, 2)
			if terms[0].Reason != vm.ReasonMPIError {
				t.Fatalf("rank 0: %v, want mpi-error", terms[0])
			}
			if !strings.Contains(terms[0].Msg, tt.sub) {
				t.Errorf("msg %q missing %q", terms[0].Msg, tt.sub)
			}
		})
	}
}

// TestCountLimitBoundary pins the message-count bound that separates "MPI
// error detected" from whatever a huge copy would do: 4 Mi elements pass
// validation, one more is an MPI runtime error. The bound is its own
// constant, not a multiple of the mailbox capacity.
func TestCountLimitBoundary(t *testing.T) {
	if maxCount != 4<<20 {
		t.Fatalf("maxCount = %d, want 4 Mi", maxCount)
	}
	e := &env{w: &World{size: 2}}
	if err := e.validate("MPI_Send", maxCount, isa.TypeInt64, 1, 0, false); err != nil {
		t.Errorf("count == limit rejected: %v", err)
	}
	err := e.validate("MPI_Send", maxCount+1, isa.TypeInt64, 1, 0, false)
	var mpiErr *vm.MPIRuntimeError
	if !errors.As(err, &mpiErr) || !strings.Contains(mpiErr.Msg, "invalid count") {
		t.Errorf("count == limit+1: %v, want an invalid-count MPIRuntimeError", err)
	}
	if err := e.validate("MPI_Send", -1, isa.TypeInt64, 1, 0, false); err == nil {
		t.Error("negative count accepted")
	}
}

func TestCorruptedBufferIsSegfault(t *testing.T) {
	prog := compile(t, &lang.Program{Name: "segv", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.If{Cond: lang.Eq(lang.RankExpr{}, I(0)), Then: B(
				// Send from a wild pointer.
				lang.MPISend{Buf: I(0x50), Count: I(4), Dtype: 1, Dest: I(1), Tag: I(0)},
			), Else: B(
				lang.Let("buf", lang.Alloc(I(4))),
				lang.MPIRecv{Buf: V("buf"), Count: I(4), Dtype: 1, Source: I(0), Tag: I(0)},
			)},
		),
	}}})
	_, terms := runWorld(t, prog, 2)
	if terms[0].Reason != vm.ReasonSignal || terms[0].Signal != vm.SIGSEGV {
		t.Fatalf("rank 0: %v, want SIGSEGV", terms[0])
	}
	// Rank 1 is aborted by the supervisor with an MPI error.
	if terms[1].Reason != vm.ReasonMPIError {
		t.Fatalf("rank 1: %v, want mpi-error (peer abort)", terms[1])
	}
	if !strings.Contains(terms[1].Msg, "peer rank 0") {
		t.Errorf("rank 1 msg = %q", terms[1].Msg)
	}
}

func TestTruncationError(t *testing.T) {
	prog := compile(t, &lang.Program{Name: "trunc", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(8))),
			lang.If{Cond: lang.Eq(lang.RankExpr{}, I(0)), Then: B(
				lang.MPISend{Buf: V("buf"), Count: I(8), Dtype: 1, Dest: I(1), Tag: I(0)},
			), Else: B(
				lang.MPIRecv{Buf: V("buf"), Count: I(2), Dtype: 1, Source: I(0), Tag: I(0)},
			)},
		),
	}}})
	_, terms := runWorld(t, prog, 2)
	if terms[1].Reason != vm.ReasonMPIError || !strings.Contains(terms[1].Msg, "truncated") {
		t.Fatalf("rank 1: %v, want truncation mpi-error", terms[1])
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Both ranks recv first: classic deadlock; the watchdog must fire.
	prog := compile(t, &lang.Program{Name: "deadlock", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: 1,
				Source: lang.Sub(I(1), lang.RankExpr{}), Tag: I(0)},
		),
	}}})
	_, terms := runWorld(t, prog, 2)
	for r, term := range terms {
		if term.Reason != vm.ReasonMPIError {
			t.Fatalf("rank %d: %v, want mpi-error (deadlock)", r, term)
		}
	}
}

func TestTagMatching(t *testing.T) {
	// Rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first.
	prog := compile(t, &lang.Program{Name: "tags", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("a", lang.Alloc(I(1))),
			lang.Let("b", lang.Alloc(I(1))),
			lang.If{Cond: lang.Eq(lang.RankExpr{}, I(0)), Then: B(
				lang.SetAt(V("a"), I(0), I(200)),
				lang.SetAt(V("b"), I(0), I(100)),
				lang.MPISend{Buf: V("a"), Count: I(1), Dtype: 1, Dest: I(1), Tag: I(2)},
				lang.MPISend{Buf: V("b"), Count: I(1), Dtype: 1, Dest: I(1), Tag: I(1)},
			), Else: B(
				lang.MPIRecv{Buf: V("a"), Count: I(1), Dtype: 1, Source: I(0), Tag: I(1)},
				lang.MPIRecv{Buf: V("b"), Count: I(1), Dtype: 1, Source: I(0), Tag: I(2)},
				lang.OutInt{E: lang.At(V("a"), I(0))}, // 100 (tag 1)
				lang.OutInt{E: lang.At(V("b"), I(0))}, // 200 (tag 2)
			)},
		),
	}}})
	w, terms := runWorld(t, prog, 2)
	for r, term := range terms {
		if term.Reason != vm.ReasonExited {
			t.Fatalf("rank %d: %v", r, term)
		}
	}
	out := w.Machine(1).Output()
	if got := int64(binary.LittleEndian.Uint64(out)); got != 100 {
		t.Errorf("tag-1 payload = %d, want 100", got)
	}
	if got := int64(binary.LittleEndian.Uint64(out[8:])); got != 200 {
		t.Errorf("tag-2 payload = %d, want 200", got)
	}
}

func TestWorldConfigErrors(t *testing.T) {
	if _, err := NewWorld(&isa.Program{}, Config{Size: 0}); err == nil {
		t.Error("size 0 accepted")
	}
}

func TestSetupHookRuns(t *testing.T) {
	prog := pingProg(t)
	seen := map[int]bool{}
	w, err := NewWorld(prog, Config{Size: 2, Setup: func(rank int, m *vm.Machine) {
		seen[rank] = true
		if m.Rank != rank || m.WorldSize != 2 {
			t.Errorf("machine identity wrong: rank %d size %d", m.Rank, m.WorldSize)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !seen[0] || !seen[1] {
		t.Error("setup hook not run for all ranks")
	}
	terms := w.Run()
	for r, term := range terms {
		if term.Reason != vm.ReasonExited {
			t.Fatalf("rank %d: %v", r, term)
		}
	}
}

func mathFloat64frombits(b uint64) float64 { return math.Float64frombits(b) }

func TestAllreduce(t *testing.T) {
	prog := compile(t, &lang.Program{Name: "allred", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("send", lang.Alloc(I(2))),
			lang.Let("recv", lang.Alloc(I(2))),
			lang.SetAt(V("send"), I(0), Ad(lang.RankExpr{}, I(1))), // 1..4
			lang.SetAt(V("send"), I(1), lang.Mul(lang.RankExpr{}, lang.RankExpr{})),
			lang.Allreduce{SendBuf: V("send"), RecvBuf: V("recv"), Count: I(2),
				Dtype: int64(isa.TypeInt64), ReduceOp: int64(isa.ReduceSum)},
			lang.OutInt{E: lang.At(V("recv"), I(0))}, // 10 on every rank
			lang.OutInt{E: lang.At(V("recv"), I(1))}, // 0+1+4+9 = 14
		),
	}}})
	w, terms := runWorld(t, prog, 4)
	for r, term := range terms {
		if term.Reason != vm.ReasonExited {
			t.Fatalf("rank %d: %v", r, term)
		}
		out := w.Machine(r).Output()
		if got := int64(binary.LittleEndian.Uint64(out)); got != 10 {
			t.Errorf("rank %d allreduce[0] = %d, want 10", r, got)
		}
		if got := int64(binary.LittleEndian.Uint64(out[8:])); got != 14 {
			t.Errorf("rank %d allreduce[1] = %d, want 14", r, got)
		}
	}
}

func TestAllreduceFloatMax(t *testing.T) {
	prog := compile(t, &lang.Program{Name: "allredf", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("send", lang.Alloc(I(1))),
			lang.Let("recv", lang.Alloc(I(1))),
			lang.SetAt(V("send"), I(0), lang.ToFloat(lang.Mul(lang.RankExpr{}, I(3)))),
			lang.Allreduce{SendBuf: V("send"), RecvBuf: V("recv"), Count: I(1),
				Dtype: int64(isa.TypeFloat64), ReduceOp: int64(isa.ReduceMax)},
			lang.OutFloat{E: lang.AtF(V("recv"), I(0))},
		),
	}}})
	w, terms := runWorld(t, prog, 3)
	for r, term := range terms {
		if term.Reason != vm.ReasonExited {
			t.Fatalf("rank %d: %v", r, term)
		}
		out := w.Machine(r).Output()
		if got := math.Float64frombits(binary.LittleEndian.Uint64(out)); got != 6 {
			t.Errorf("rank %d allreduce max = %v, want 6", r, got)
		}
	}
}

func TestCollectiveValidationErrors(t *testing.T) {
	mk := func(body ...lang.Stmt) *isa.Program {
		return compile(t, &lang.Program{Name: "colerr", Funcs: []*lang.Func{{
			Name: "main",
			Body: append(B(lang.Let("buf", lang.Alloc(I(2)))), body...),
		}}})
	}
	tests := []struct {
		name string
		body []lang.Stmt
		sub  string
	}{
		{"bcast bad root", B(
			lang.Bcast{Buf: V("buf"), Count: I(2), Dtype: 1, Root: I(9)},
		), "invalid rank"},
		{"reduce bad op", B(
			lang.Reduce{SendBuf: V("buf"), RecvBuf: V("buf"), Count: I(2),
				Dtype: 1, ReduceOp: 9, Root: I(0)},
		), "invalid reduce op"},
		{"reduce byte dtype", B(
			lang.Reduce{SendBuf: V("buf"), RecvBuf: V("buf"), Count: I(2),
				Dtype: int64(isa.TypeByte), ReduceOp: 1, Root: I(0)},
		), "byte reduction"},
		{"allreduce bad op", B(
			lang.Allreduce{SendBuf: V("buf"), RecvBuf: V("buf"), Count: I(2),
				Dtype: 1, ReduceOp: 0},
		), "invalid reduce op"},
		{"allreduce byte dtype", B(
			lang.Allreduce{SendBuf: V("buf"), RecvBuf: V("buf"), Count: I(2),
				Dtype: int64(isa.TypeByte), ReduceOp: 1},
		), "byte reduction"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, terms := runWorld(t, mk(tt.body...), 2)
			if terms[0].Reason != vm.ReasonMPIError {
				t.Fatalf("rank 0: %v", terms[0])
			}
			if !strings.Contains(terms[0].Msg, tt.sub) {
				t.Errorf("msg %q missing %q", terms[0].Msg, tt.sub)
			}
		})
	}
}

func TestBcastFromNonzeroRoot(t *testing.T) {
	prog := compile(t, &lang.Program{Name: "bcast2", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.If{Cond: lang.Eq(lang.RankExpr{}, I(2)), Then: B(
				lang.SetAt(V("buf"), I(0), I(777)),
			)},
			lang.Bcast{Buf: V("buf"), Count: I(1), Dtype: 1, Root: I(2)},
			lang.OutInt{E: lang.At(V("buf"), I(0))},
		),
	}}})
	w, terms := runWorld(t, prog, 3)
	for r, term := range terms {
		if term.Reason != vm.ReasonExited {
			t.Fatalf("rank %d: %v", r, term)
		}
		out := w.Machine(r).Output()
		if got := int64(binary.LittleEndian.Uint64(out)); got != 777 {
			t.Errorf("rank %d bcast value = %d", r, got)
		}
	}
}

func TestMixedTagAndCollectiveInterleaving(t *testing.T) {
	// Point-to-point traffic interleaved with collectives must not
	// cross-match (reserved internal tags).
	prog := compile(t, &lang.Program{Name: "mixed", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.Let("col", lang.Alloc(I(1))),
			lang.If{Cond: lang.Eq(lang.RankExpr{}, I(0)), Then: B(
				lang.SetAt(V("buf"), I(0), I(5)),
				lang.SetAt(V("col"), I(0), I(100)),
				lang.MPISend{Buf: V("buf"), Count: I(1), Dtype: 1, Dest: I(1), Tag: I(0)},
				lang.Bcast{Buf: V("col"), Count: I(1), Dtype: 1, Root: I(0)},
			), Else: B(
				lang.Bcast{Buf: V("col"), Count: I(1), Dtype: 1, Root: I(0)},
				lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: 1, Source: I(0), Tag: I(0)},
				lang.OutInt{E: lang.Add(lang.At(V("buf"), I(0)), lang.At(V("col"), I(0)))},
			)},
		),
	}}})
	w, terms := runWorld(t, prog, 2)
	for r, term := range terms {
		if term.Reason != vm.ReasonExited {
			t.Fatalf("rank %d: %v", r, term)
		}
	}
	out := w.Machine(1).Output()
	if got := int64(binary.LittleEndian.Uint64(out)); got != 105 {
		t.Errorf("mixed result = %d, want 105", got)
	}
}

// TestWorldInterrupt verifies the run-watchdog primitive: Interrupt must
// terminate a spinning rank at its next block boundary AND wake a rank
// blocked inside an MPI wait, tagging every rank with the given
// termination. A second Interrupt must be a harmless no-op.
func TestWorldInterrupt(t *testing.T) {
	// Rank 0 blocks in a recv that will never be satisfied; rank 1 spins in
	// a long compute loop (so the deadlock detector never trips: one rank
	// is always live).
	prog := compile(t, &lang.Program{Name: "stall", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.If{
				Cond: lang.Eq(lang.RankExpr{}, I(0)),
				Then: B(lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: 1,
					Source: I(1), Tag: I(9)}),
				Else: B(
					lang.Let("s", I(0)),
					lang.For{Var: "i", From: I(0), To: I(1 << 40), Body: B(
						lang.Set("s", Ad(V("s"), I(1))),
					)},
				),
			},
		),
	}}})
	w, err := NewWorld(prog, Config{
		Size: 2,
		Machine: func(int) vm.Config {
			return vm.Config{MaxInstructions: 1 << 40} // never budget-kill
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []vm.Termination, 1)
	go func() { done <- w.Run() }()
	time.Sleep(5 * time.Millisecond) // let rank 0 block and rank 1 spin
	cause := vm.Termination{Reason: vm.ReasonTimeout, Msg: "wall-clock deadline 5ms exceeded"}
	w.Interrupt(cause)
	w.Interrupt(cause) // idempotent
	var terms []vm.Termination
	select {
	case terms = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("world did not stop after Interrupt")
	}
	for r, term := range terms {
		if term.Reason != vm.ReasonTimeout {
			t.Errorf("rank %d: reason = %v, want timeout (%v)", r, term.Reason, term)
		}
		if !term.Abnormal() {
			t.Errorf("rank %d: timeout not abnormal", r)
		}
	}
}

// TestAbortCountsOnlyLivePeers: a rank that fails aborts its peers, once —
// and a rank with no live peer aborts nothing: a one-rank world that crashes
// counts no abort and emits no world_abort, a four-rank world whose rank 2
// faults while the others wait on it counts one.
func TestAbortCountsOnlyLivePeers(t *testing.T) {
	prog := compile(t, &lang.Program{Name: "fault", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.If{
				Cond: lang.Eq(lang.RankExpr{}, lang.Div(lang.SizeExpr{}, I(2))), // rank 2 of 4, 0 of 1
				Then: B(lang.OutInt{E: lang.At(I(0x50), I(0))}),                 // a wild load: SIGSEGV
				Else: B(lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: 1, Source: I(2), Tag: I(0)}),
			},
		),
	}}})
	for _, tc := range []struct {
		size, aborts int
	}{{1, 0}, {4, 1}} {
		reg, sink := obs.NewRegistry(), obs.NewSink(0)
		w, err := NewWorld(prog, Config{Size: tc.size, Obs: reg, Events: sink})
		if err != nil {
			t.Fatal(err)
		}
		terms := w.Run()
		faulted := tc.size / 2
		if terms[faulted].Reason != vm.ReasonSignal {
			t.Fatalf("size %d: rank %d %v, want SIGSEGV", tc.size, faulted, terms[faulted])
		}
		for r, term := range terms {
			if r != faulted && (term.Reason != vm.ReasonMPIError || !strings.Contains(term.Msg, "peer rank 2")) {
				t.Errorf("size %d: rank %d %v, want the peer abort", tc.size, r, term)
			}
		}
		if got := reg.Counter("mpi_aborts_total").Value(); got != uint64(tc.aborts) {
			t.Errorf("size %d: mpi_aborts_total = %d, want %d", tc.size, got, tc.aborts)
		}
		evs, _ := sink.Since(0, 100)
		n := 0
		for _, ev := range evs {
			if ev.Type == "world_abort" {
				n++
			}
		}
		if n != tc.aborts {
			t.Errorf("size %d: %d world_abort events, want %d", tc.size, n, tc.aborts)
		}
	}
}
