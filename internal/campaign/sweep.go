package campaign

import (
	"fmt"
	"strings"

	"chaser/internal/core"
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
// on the same program executes no golden run. A sweep that fails drops it.
func BitSweep(cfg Config, bitCounts []int) ([]SweepResult, error) {
	e, err := residents.acquire(cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: sweep golden run: %w", err)
	}
	out := make([]SweepResult, 0, len(bitCounts))
	err = residents.run(e, cfg.Obs, func(base *Baseline) error {
		// Entries share the task list and so the fork points: each is handed
		// the rung the one before ended on, and finds it again at its site.
		var last *core.WorldSnapshot
		for _, bits := range bitCounts {
			c := cfg
			c.Bits = bits
			c.Name = fmt.Sprintf("%s/bits=%d", cfg.Name, bits)
			// A sweep reuses one Config for several campaigns; a single
			// journal path cannot checkpoint them all, so journaling is
			// per-campaign only.
			c.Journal, c.Resume = "", ""
			sum, l, err := runPrepared(c, base, last)
			if err != nil {
				return fmt.Errorf("campaign: sweep bits=%d: %w", bits, err)
			}
			last = l
			out = append(out, SweepResult{Bits: bits, Summary: sum})
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
