package apps

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"chaser/internal/core"
	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/vm"
)

// lcg mirrors the in-guest generator so tests can recompute expected inputs.
type lcg struct{ seed uint64 }

func (l *lcg) next(bound int64) int64 {
	l.seed = l.seed*6364136223846793005 + 1442695040888963407
	return int64(l.seed>>33) % bound
}

func golden(t *testing.T, name string) (*core.RunResult, App) {
	t.Helper()
	app, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Golden(app.Prog, app.WorldSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res, app
}

func ints(t *testing.T, b []byte) []int64 {
	t.Helper()
	if len(b)%8 != 0 {
		t.Fatalf("output len %d", len(b))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func floats(t *testing.T, b []byte) []float64 {
	t.Helper()
	if len(b)%8 != 0 {
		t.Fatalf("output len %d", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"bfs", "clamr", "clamr_mpi", "kmeans", "lud", "matvec"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("unknown app accepted")
	}
	all := All()
	if len(all) != len(want) {
		t.Errorf("All() = %d apps", len(all))
	}
	for _, app := range all {
		if app.Prog == nil || app.WorldSize < 1 || len(app.DefaultOps) == 0 {
			t.Errorf("app %q incomplete: %+v", app.Name, app)
		}
	}
}

// TestByNameOnce: a guest is compiled once per process however many callers
// ask for it at once — they share one read-only Prog — and each gets its own
// DefaultOps to narrow or reorder.
func TestByNameOnce(t *testing.T) {
	for _, name := range Names() {
		const callers = 8
		got := make([]App, callers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				app, err := ByName(name)
				if err != nil {
					t.Error(err)
					return
				}
				app.DefaultOps[0] = isa.OpNop
				got[i] = app
			}(i)
		}
		wg.Wait()
		for _, app := range got[1:] {
			if app.Prog == nil || app.Prog != got[0].Prog {
				t.Errorf("%s: callers hold different programs", name)
			}
		}
		if app, _ := ByName(name); app.DefaultOps[0] == isa.OpNop {
			t.Errorf("%s: a caller's write to DefaultOps reached the registry", name)
		}
	}
}

func TestMatvecMatchesReference(t *testing.T) {
	res, app := golden(t, "matvec")
	for r, term := range res.Terms {
		if term.Reason != vm.ReasonExited || term.Code != 0 {
			t.Fatalf("rank %d: %v", r, term)
		}
	}
	// Recompute b = A*x with the same generator and summation order.
	n := int64(DefaultMatvecN)
	g := &lcg{seed: 20200651}
	x := make([]float64, n)
	a := make([][]float64, n)
	for i := int64(0); i < n; i++ {
		x[i] = float64(g.next(1000)) / 100
		a[i] = make([]float64, n)
		for j := int64(0); j < n; j++ {
			a[i][j] = float64(g.next(1000)) / 100
		}
	}
	want := make([]float64, n)
	for i := int64(0); i < n; i++ {
		acc := 0.0
		for j := int64(0); j < n; j++ {
			acc += a[i][j] * x[j]
		}
		want[i] = acc
	}
	got := floats(t, res.Outputs[0])
	if len(got) != int(n) {
		t.Fatalf("output = %d values, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("b[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if app.WorldSize != 4 {
		t.Errorf("world size = %d", app.WorldSize)
	}
}

func TestBFSMatchesReference(t *testing.T) {
	res, _ := golden(t, "bfs")
	if res.Terms[0].Reason != vm.ReasonExited {
		t.Fatalf("term = %v", res.Terms[0])
	}
	// Rebuild the graph with the same generator and run a reference BFS.
	n, deg := int64(DefaultBFSNodes), int64(DefaultBFSDegree)
	g := &lcg{seed: 987654321}
	edges := make([][]int64, n)
	for i := int64(0); i < n; i++ {
		edges[i] = make([]int64, deg)
		for k := int64(0); k < deg; k++ {
			edges[i][k] = g.next(n)
		}
	}
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []int64{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range edges[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	reached := int64(0)
	for _, d := range dist {
		if d != -1 {
			reached++
		}
	}
	got := ints(t, res.Outputs[0])
	if len(got) != int(n)+1 {
		t.Fatalf("output = %d values, want %d", len(got), n+1)
	}
	for i := int64(0); i < n; i++ {
		if got[i] != dist[i] {
			t.Errorf("dist[%d] = %d, want %d", i, got[i], dist[i])
		}
	}
	if got[n] != reached {
		t.Errorf("reached = %d, want %d", got[n], reached)
	}
	if reached < n/2 {
		t.Errorf("graph too disconnected: reached %d of %d", reached, n)
	}
}

func TestKMeansProducesSaneClustering(t *testing.T) {
	res, _ := golden(t, "kmeans")
	if res.Terms[0].Reason != vm.ReasonExited {
		t.Fatalf("term = %v", res.Terms[0])
	}
	out := res.Outputs[0]
	k, np := int64(DefaultKMeansK), int64(DefaultKMeansPoints)
	if int64(len(out)) != (2*k+np)*8 {
		t.Fatalf("output size = %d, want %d", len(out), (2*k+np)*8)
	}
	cents := floats(t, out[:2*k*8])
	for i, c := range cents {
		if c < 0 || c >= 10 {
			t.Errorf("centroid coord %d = %v out of range", i, c)
		}
	}
	assigns := ints(t, out[2*k*8:])
	seen := map[int64]int{}
	for i, a := range assigns {
		if a < 0 || a >= k {
			t.Fatalf("assignment %d = %d out of range", i, a)
		}
		seen[a]++
	}
	if len(seen) < 2 {
		t.Errorf("all points in %d cluster(s)", len(seen))
	}
}

func TestLUDFactorizationResidual(t *testing.T) {
	res, _ := golden(t, "lud")
	if res.Terms[0].Reason != vm.ReasonExited {
		t.Fatalf("term = %v", res.Terms[0])
	}
	vals := floats(t, res.Outputs[0])
	n := int64(DefaultLUDN)
	if int64(len(vals)) != n*n+1 {
		t.Fatalf("output = %d values, want %d", len(vals), n*n+1)
	}
	residual := vals[len(vals)-1]
	if residual < 0 || residual > 1e-9 {
		t.Errorf("reconstruction residual = %v, want tiny", residual)
	}
	// Diagonal of U must be strongly positive (diagonally dominant input).
	for i := int64(0); i < n; i++ {
		if u := vals[i*n+i]; u < 1 {
			t.Errorf("U[%d][%d] = %v, want >= 1", i, i, u)
		}
	}
}

func TestCLAMRConservesMassAndOutputs(t *testing.T) {
	res, _ := golden(t, "clamr")
	if res.Terms[0].Reason != vm.ReasonExited || res.Terms[0].Code != 0 {
		t.Fatalf("term = %v (mass checker must pass on golden run)", res.Terms[0])
	}
	vals := floats(t, res.Outputs[0])
	cells, steps := int64(DefaultCLAMRCells), int64(DefaultCLAMRSteps)
	checkpoints := (steps + clamrCheckpointEvery - 1) / clamrCheckpointEvery
	wantLen := checkpoints*3 + cells
	if int64(len(vals)) != wantLen {
		t.Fatalf("output = %d values, want %d", len(vals), wantLen)
	}
	// Initial mass: n/3 cells at 4.0 (the middle third) and the rest at 1.0.
	high := cells/3*2 - cells/3
	mass0 := float64(high)*4 + float64(cells-high)*1
	// Every checkpoint mass equals mass0 within the checker tolerance.
	for c := int64(0); c < checkpoints; c++ {
		mass := vals[c*3+1]
		if math.Abs(mass-mass0) > 1e-9*mass0 {
			t.Errorf("checkpoint %d mass = %v, want %v", c, mass, mass0)
		}
	}
	// Refinement fires at the dam-break fronts.
	foundRefined := false
	for c := int64(0); c < checkpoints; c++ {
		if nref := int64(math.Float64bits(vals[c*3+2])); nref != 0 {
			foundRefined = true
		}
	}
	if !foundRefined {
		t.Error("no refined cells at any checkpoint (AMR never triggered)")
	}
	// Final heights positive and summing to mass0.
	var sum float64
	for _, h := range vals[checkpoints*3:] {
		if h <= 0 {
			t.Errorf("non-positive height %v", h)
		}
		sum += h
	}
	if math.Abs(sum-mass0) > 1e-9*mass0 {
		t.Errorf("final mass = %v, want %v", sum, mass0)
	}
}

func TestCLAMRDetectsMassViolation(t *testing.T) {
	// Corrupting heights by a large amount must trip the in-guest checker
	// (ReasonAssert = "detected" in the paper's classification).
	app, err := ByName("clamr")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(core.RunConfig{
		Prog: app.Prog,
		Spec: &core.Spec{
			Target: "clamr",
			Ops:    app.DefaultOps,
			Cond:   core.Deterministic{N: 500},
			Bits:   1,
			Seed:   3, // chosen so the flip lands in the exponent
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Injected() {
		t.Fatal("no injection")
	}
	// A high-bit FP flip typically produces assert, signal, or SDC — never
	// silently hang. Accept any abnormal or exited outcome but require the
	// run to have completed.
	if res.Terms[0].Reason == vm.ReasonBudget {
		t.Errorf("run hung: %v", res.Terms[0])
	}
}

func TestAppInstructionBudgets(t *testing.T) {
	// Campaigns run thousands of executions; keep each app within a few
	// million instructions per rank.
	const budget = 3_000_000
	for _, app := range All() {
		res, err := core.Golden(app.Prog, app.WorldSize, budget)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		for r, term := range res.Terms {
			if term.Reason != vm.ReasonExited {
				t.Errorf("%s rank %d: %v", app.Name, r, term)
			}
		}
		var total uint64
		for _, c := range res.Counters {
			total += c.Instructions
		}
		t.Logf("%s: %d instructions total across %d rank(s)", app.Name, total, app.WorldSize)
		if total > budget {
			t.Errorf("%s uses %d instructions, over budget %d", app.Name, total, budget)
		}
	}
}

func TestAppsExecuteTheirTargetOps(t *testing.T) {
	// Each app must actually execute its default injection targets, or
	// campaigns would never fire.
	for _, app := range All() {
		res, err := core.Golden(app.Prog, app.WorldSize, 0)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		rank := app.TargetRank
		if rank < 0 {
			rank = 0
		}
		for _, op := range app.DefaultOps {
			if res.Counters[rank].PerOp[op] == 0 {
				t.Errorf("%s rank %d never executes %v", app.Name, rank, op)
			}
		}
	}
}

func TestLCGHelperMatchesGuest(t *testing.T) {
	// Sanity: the Go-side lcg replica matches a minimal guest program using
	// lcgNext.
	prog, err := lang.Compile(&lang.Program{Name: "lcgtest", Funcs: []*lang.Func{{
		Name: "main",
		Body: cat(
			lang.Block(lang.Let("seed", lang.I(20200651)), lang.Let("r", lang.I(0))),
			lcgNext("seed", "r", 1000),
			lang.Block(lang.OutInt{E: lang.V("r")}),
			lcgNext("seed", "r", 1000),
			lang.Block(lang.OutInt{E: lang.V("r")}),
		),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Golden(prog, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := ints(t, res.Outputs[0])
	g := &lcg{seed: 20200651}
	if got[0] != g.next(1000) || got[1] != g.next(1000) {
		t.Errorf("guest lcg %v diverges from reference", got)
	}
}

func TestStdlibFunctions(t *testing.T) {
	I, F, V, B := lang.I, lang.F, lang.V, lang.Block
	prog, err := lang.Compile(&lang.Program{
		Name: "stdlib",
		Funcs: append([]*lang.Func{
			{
				Name: "main",
				Body: B(
					lang.OutFloat{E: lang.Call("sqrt", F(2))},
					lang.OutFloat{E: lang.Call("sqrt", F(0))},
					lang.OutFloat{E: lang.Call("sqrt", F(144))},
					lang.OutFloat{E: lang.Call("fabs", F(-3.5))},
					lang.OutFloat{E: lang.Call("fabs", F(3.5))},
					lang.OutFloat{E: lang.Call("fmin", F(2), F(7))},
					lang.OutFloat{E: lang.Call("fmax", F(2), F(7))},
				),
			},
			SqrtFunc(), AbsFunc(),
		}, MinMaxFuncs()...),
	})
	_ = I
	_ = V
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Golden(prog, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := floats(t, res.Outputs[0])
	want := []float64{math.Sqrt(2), 0, 12, 3.5, 3.5, 2, 7}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("stdlib[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
