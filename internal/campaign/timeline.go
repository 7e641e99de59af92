package campaign

import (
	"fmt"
	"slices"
	"time"

	"chaser/internal/core"
	"chaser/internal/isa"
	"chaser/internal/trace"
)

// TimelineConfig parameterizes a single traced injection run whose
// tainted-bytes-vs-time curve reproduces Fig. 7.
type TimelineConfig struct {
	Prog      *isa.Program
	WorldSize int
	Ops       []isa.Op
	// N is the execution count at which to inject.
	N uint64
	// Bits flipped at injection (ignored when Inj is set).
	Bits int
	// Inj overrides the default operand injector, e.g. to pin an exact
	// corruption mask for a reproducible case study.
	Inj  core.Injector
	Seed int64
	// SampleInterval in instructions (0 = the paper's 100K).
	SampleInterval uint64
	TargetRank     int
}

// Timeline runs one traced injection and returns the tainted-bytes samples
// in execution order, together with the classified outcome.
func Timeline(cfg TimelineConfig) ([]trace.TimelinePoint, *core.RunResult, error) {
	res, err := core.Run(core.RunConfig{
		Prog:           cfg.Prog,
		WorldSize:      worldSize(cfg.WorldSize),
		SampleInterval: cfg.SampleInterval,
		Spec: &core.Spec{
			Target:     cfg.Prog.Name,
			Ops:        cfg.Ops,
			TargetRank: cfg.TargetRank,
			Cond:       core.Deterministic{N: cfg.N},
			Bits:       cfg.Bits,
			Inj:        cfg.Inj,
			Seed:       cfg.Seed,
			Trace:      true,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Trace.Timeline(), res, nil
}

// OverheadConfig parameterizes the Fig. 10 performance-overhead experiment.
type OverheadConfig struct {
	Prog      *isa.Program
	WorldSize int
	Ops       []isa.Op
	// N is the execution count at which the identity injection fires
	// (the paper uses "after it has been executed 1000 times").
	N          uint64
	Reps       int // timing repetitions per configuration
	Seed       int64
	TargetRank int
}

// OverheadResult reports wall-clock per-run times for the four
// configurations of Fig. 10. Injection uses the identity injector so every
// configuration executes identical guest work.
type OverheadResult struct {
	Baseline       time.Duration // no injection, no tracing
	InjectOnly     time.Duration // injection, no tracing
	TraceOnly      time.Duration // no injection, tracing enabled
	InjectAndTrace time.Duration // injection + tracing
}

// InjectOverheadPct returns the injection-only overhead over baseline (%).
func (o OverheadResult) InjectOverheadPct() float64 {
	return pctOver(o.InjectOnly, o.Baseline)
}

// TraceOverheadPct returns the tracing overhead over baseline (%).
func (o OverheadResult) TraceOverheadPct() float64 {
	return pctOver(o.InjectAndTrace, o.InjectOnly)
}

func pctOver(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (float64(a) - float64(b)) / float64(b)
}

// MeasureOverhead times the four Fig. 10 configurations and returns each
// one's median per-run duration. The configurations take turns, one run each
// per rep, and the one that goes first rotates from rep to rep, so a drift of
// the host's speed over the measurement lands on all four alike; the median
// drops the runs a descheduling or a collection stretched.
func MeasureOverhead(cfg OverheadConfig) (OverheadResult, error) {
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	world := worldSize(cfg.WorldSize)
	timeIt := func(spec *core.Spec) (time.Duration, error) {
		start := time.Now()
		res, err := core.Run(core.RunConfig{Prog: cfg.Prog, WorldSize: world, Spec: spec})
		if err != nil {
			return 0, err
		}
		for r, t := range res.Terms {
			if t.Abnormal() {
				return 0, fmt.Errorf("campaign: overhead run rank %d: %s", r, t)
			}
		}
		return time.Since(start), nil
	}
	mkSpec := func(inject, traceOn bool) *core.Spec {
		if !inject && !traceOn {
			return nil
		}
		cond := core.Condition(core.Deterministic{N: cfg.N})
		if !inject {
			// Tracing-only: arm with a condition that never fires so the
			// instrumentation and taint machinery are active but no fault
			// is placed.
			cond = core.Deterministic{N: 1 << 62}
		}
		return &core.Spec{
			Target:     cfg.Prog.Name,
			Ops:        cfg.Ops,
			TargetRank: cfg.TargetRank,
			Cond:       cond,
			Inj:        core.IdentityInjector{Bits: 8},
			Seed:       cfg.Seed,
			Trace:      traceOn,
		}
	}
	// In OverheadResult's order.
	specs := []*core.Spec{nil, mkSpec(true, false), mkSpec(false, true), mkSpec(true, true)}
	times := make([][]time.Duration, len(specs))
	for i := 0; i < cfg.Reps; i++ {
		for k := range specs {
			c := (i + k) % len(specs)
			d, err := timeIt(specs[c])
			if err != nil {
				return OverheadResult{}, err
			}
			times[c] = append(times[c], d)
		}
	}
	median := func(ds []time.Duration) time.Duration {
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	return OverheadResult{median(times[0]), median(times[1]), median(times[2]), median(times[3])}, nil
}
