// Package core implements Chaser itself: a fine-grained, accountable,
// flexible, and efficient soft-error fault injection and propagation-tracing
// framework that attaches its hooks to the machines of every world it runs
// (the paper's DECAF plugin, with the one plugin in one process).
//
//   - Fine-grained: faults target a designated application, instruction
//     opcode, and injection condition (execution count, probability, group).
//   - Accountable: every injection is recorded, and propagation is traced
//     through bitwise taint — locally via tainted-memory callbacks and across
//     MPI ranks via the TaintHub.
//   - Flexible: fault models and injectors are small interfaces; the three
//     models of Table I ship built in, and new injectors take ~100 lines
//     (see internal/injectors and Table II's harness).
//   - Efficient: only targeted instructions are instrumented, by inserting a
//     helper call into their translated micro-ops at translation time
//     (Fig. 3); untargeted code runs at full speed.
package core

import (
	"fmt"
	"math/rand"
)

// Condition decides when a fault fires (the paper's fi_trigger_st). It is
// consulted immediately before every execution of a targeted instruction
// with the 1-based execution count n.
type Condition interface {
	ShouldInject(n uint64, rng *rand.Rand) bool
}

// Probabilistic is Table I's probabilistic fault model: the injection
// location is drawn from a predefined probability per execution.
type Probabilistic struct {
	// P is the per-execution injection probability in [0, 1].
	P float64
}

// ShouldInject implements Condition.
func (p Probabilistic) ShouldInject(_ uint64, rng *rand.Rand) bool {
	return rng.Float64() < p.P
}

// String describes the model.
func (p Probabilistic) String() string { return fmt.Sprintf("probabilistic(p=%g)", p.P) }

// Deterministic is Table I's deterministic fault model: the injection
// location is the exact predefined execution count.
type Deterministic struct {
	// N is the execution count at which to inject (1-based).
	N uint64
}

// ShouldInject implements Condition.
func (d Deterministic) ShouldInject(n uint64, _ *rand.Rand) bool {
	return n == d.N
}

// String describes the model.
func (d Deterministic) String() string { return fmt.Sprintf("deterministic(n=%d)", d.N) }

// Group is Table I's group fault model: multiple faults are injected, one
// every Every executions starting at Start.
type Group struct {
	Start uint64 // first execution to inject at (1-based)
	Every uint64 // injection period; 0 means every execution
}

// ShouldInject implements Condition.
func (g Group) ShouldInject(n uint64, _ *rand.Rand) bool {
	if n < g.Start {
		return false
	}
	if g.Every <= 1 {
		return true
	}
	return (n-g.Start)%g.Every == 0
}

// String describes the model.
func (g Group) String() string { return fmt.Sprintf("group(start=%d,every=%d)", g.Start, g.Every) }
