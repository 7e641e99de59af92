// Package apps contains the guest applications used in the paper's
// evaluation, authored in the internal/lang mini-language and compiled to
// the guest ISA:
//
//   - matvec: the MPI matrix-vector product b = A*x (master/slave, 4 ranks);
//     the paper injects faults into the master's mov instructions.
//   - bfs: Rodinia-style breadth-first search (cmp-heavy).
//   - kmeans: Rodinia-style k-means clustering (floating-point kernel).
//   - lud: Rodinia-style LU decomposition (floating point + cmp).
//   - clamr: a cell-based AMR shallow-water mini-app with a mass-conservation
//     correctness checker, checkpoints, and result output.
//
// Every app writes its result to the guest output file so campaigns can
// classify silent data corruption by bit-wise comparison with the golden
// run, exactly as the paper does.
package apps

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"chaser/internal/isa"
	"chaser/internal/lang"
)

// App is a runnable guest workload plus its campaign defaults.
type App struct {
	Name        string
	Description string
	Prog        *isa.Program
	// WorldSize is the number of MPI ranks the app expects (1 = serial).
	WorldSize int
	// DefaultOps are the instruction opcodes the paper targets for this app.
	DefaultOps []isa.Op
	// TargetRank is the rank the paper injects into (-1 = any).
	TargetRank int
}

// registry compiles each guest once per process, on first use: the compiled
// *isa.Program is read-only everywhere, so every caller of ByName shares it.
var registry = map[string]func() App{
	"matvec": sync.OnceValue(func() App {
		return App{
			Name:        "matvec",
			Description: "MPI matrix-vector product b=A*x, master/slave over 4 ranks",
			Prog:        lang.MustCompile(MatvecProgram(DefaultMatvecN)),
			WorldSize:   4,
			// The paper targets x86 "mov", which covers register moves,
			// integer loads/stores, and SSE moves (movsd) alike; the
			// equivalent data-movement class in this RISC-style guest ISA
			// is {mov, ld, st, fld, fst}.
			DefaultOps: []isa.Op{isa.OpMov, isa.OpLd, isa.OpSt, isa.OpFLd, isa.OpFSt},
			TargetRank: 0,
		}
	}),
	"bfs": sync.OnceValue(func() App {
		return App{
			Name:        "bfs",
			Description: "breadth-first search over a synthetic graph (cmp faults)",
			Prog:        lang.MustCompile(BFSProgram(DefaultBFSNodes, DefaultBFSDegree)),
			WorldSize:   1,
			// cmp is bfs's distinctive target; the mov class (ld/st) is
			// included per the paper's common Rodinia methodology of
			// injecting into "the operands (fadd, fmul and mov)".
			DefaultOps: []isa.Op{isa.OpCmp, isa.OpMov, isa.OpLd, isa.OpSt},
			TargetRank: -1,
		}
	}),
	"kmeans": sync.OnceValue(func() App {
		return App{
			Name:        "kmeans",
			Description: "k-means clustering, floating-point distance kernel",
			Prog:        lang.MustCompile(KMeansProgram(DefaultKMeansPoints, DefaultKMeansK, DefaultKMeansIters)),
			WorldSize:   1,
			DefaultOps:  []isa.Op{isa.OpFAdd, isa.OpFMul, isa.OpFSub, isa.OpLd, isa.OpSt},
			TargetRank:  -1,
		}
	}),
	"lud": sync.OnceValue(func() App {
		return App{
			Name:        "lud",
			Description: "LU decomposition, combined floating-point and cmp faults",
			Prog:        lang.MustCompile(LUDProgram(DefaultLUDN)),
			WorldSize:   1,
			DefaultOps:  []isa.Op{isa.OpFAdd, isa.OpFMul, isa.OpFSub, isa.OpFDiv, isa.OpCmp, isa.OpLd, isa.OpSt},
			TargetRank:  -1,
		}
	}),
	"clamr_mpi": sync.OnceValue(func() App {
		return App{
			Name:        "clamr_mpi",
			Description: "MPI-parallel CLAMR: block-decomposed mesh, halo exchange, allreduce conservation checks",
			Prog:        lang.MustCompile(CLAMRMPIProgram(DefaultCLAMRMPICells, DefaultCLAMRMPISteps)),
			WorldSize:   DefaultCLAMRMPIRanks,
			DefaultOps:  []isa.Op{isa.OpFAdd, isa.OpFMul, isa.OpFSub, isa.OpFDiv},
			TargetRank:  0,
		}
	}),
	"clamr": sync.OnceValue(func() App {
		return App{
			Name:        "clamr",
			Description: "cell-based AMR shallow-water mini-app with mass-conservation checker",
			Prog:        lang.MustCompile(CLAMRProgram(DefaultCLAMRCells, DefaultCLAMRSteps)),
			WorldSize:   1,
			DefaultOps:  []isa.Op{isa.OpFAdd, isa.OpFMul, isa.OpFSub, isa.OpFDiv},
			TargetRank:  -1,
		}
	}),
}

// Names lists the registered applications in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName returns the named application with its default parameters. Prog is
// shared by every caller and must not be written; DefaultOps is the caller's
// own copy.
func ByName(name string) (App, error) {
	mk, ok := registry[name]
	if !ok {
		return App{}, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
	}
	app := mk()
	app.DefaultOps = slices.Clone(app.DefaultOps)
	return app, nil
}

// All returns every registered application.
func All() []App {
	out := make([]App, 0, len(registry))
	for _, n := range Names() {
		app, _ := ByName(n)
		out = append(out, app)
	}
	return out
}

// cat concatenates statement lists; used to splice generator snippets into
// loop bodies.
func cat(lists ...[]lang.Stmt) []lang.Stmt {
	var out []lang.Stmt
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// lcgNext emits statements advancing the in-guest linear congruential
// generator stored in variable seed, leaving a non-negative pseudo-random
// int in variable dst (0 <= dst < bound).
//
// The guest apps generate their own deterministic inputs this way, like the
// benchmark generators in the Rodinia suite.
func lcgNext(seed, dst string, bound int64) []lang.Stmt {
	return lang.Block(
		lang.Set(seed, lang.Add(lang.Mul(lang.V(seed), lang.I(6364136223846793005)), lang.I(1442695040888963407))),
		lang.Set(dst, lang.Mod(lang.Bin{Op: lang.OpShr, L: lang.V(seed), R: lang.I(33)}, lang.I(bound))),
	)
}
