package campaign

import (
	"fmt"
	"strings"

	"chaser/internal/stats"
)

// SweepResult pairs a flipped-bit count with its campaign summary.
type SweepResult struct {
	Bits    int
	Summary *Summary
}

// BitSweep runs the same campaign at several per-injection bit counts —
// the paper's "the faults are x bits flipped within the operand" parameter
// — quantifying how fault magnitude shifts the outcome distribution
// (single-bit flips are often benign; multi-bit flips crash or corrupt).
//
// The golden run is identical for every bit count, so every entry runs on one
// campaign baseline — golden execution counts, the derived instruction
// budget, the shared translation base cache and the spine — the process's
// resident one for cfg, as Run's campaigns do: a sweep after another campaign
// on the same program executes no golden run. The task list is identical too,
// so the entries are one walk through one pool: each task goes out to every
// entry in turn, back to back, and a site's gap is executed once for the
// whole sweep. Each entry keeps its own outcomes and summary, which the
// worker finishing its last run makes. A sweep that fails drops the Baseline.
func BitSweep(cfg Config, bitCounts []int) ([]SweepResult, error) {
	e, err := residents.acquire(cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: sweep golden run: %w", err)
	}
	// A single journal path cannot checkpoint several campaigns, so
	// journaling is per-campaign only.
	cfg.Journal = ""
	cfgs := make([]Config, len(bitCounts))
	for i, bits := range bitCounts {
		cfgs[i] = cfg
		cfgs[i].Bits = bits
		cfgs[i].Name = fmt.Sprintf("%s/bits=%d", cfg.Name, bits)
		// The entries run a task at once: on a shared hub each takes
		// namespaces of its own.
		cfgs[i].HubNamespaceBase = cfg.HubNamespaceBase + i*cfg.Runs
	}
	out := make([]SweepResult, 0, len(bitCounts))
	err = residents.run(e, cfg.Obs, func(base *Baseline) error {
		walks, err := runWalks(base, cfgs)
		if err != nil {
			return fmt.Errorf("campaign: sweep bits=%d: %w", bitCounts[0], err)
		}
		for _, w := range walks {
			if w.err != nil {
				return fmt.Errorf("campaign: sweep bits=%d: %w", w.cfg.Bits, w.err)
			}
			out = append(out, SweepResult{Bits: w.cfg.Bits, Summary: w.sum})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SweepTable renders the sweep as one row per bit count.
func SweepTable(results []SweepResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %10s %10s %10s %10s\n",
		"bits", "benign", "sdc", "detected", "terminated")
	for _, r := range results {
		s := r.Summary
		fmt.Fprintf(&sb, "%-6d %10s %10s %10s %10s\n",
			r.Bits,
			stats.Pct(s.Benign, s.Injected),
			stats.Pct(s.SDC, s.Injected),
			stats.Pct(s.Detected, s.Injected),
			stats.Pct(s.Terminated, s.Injected))
	}
	return sb.String()
}
