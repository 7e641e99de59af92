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
// on the same program executes no golden run. A sweep that fails drops it.
func BitSweep(cfg Config, bitCounts []int) ([]SweepResult, error) {
	e, err := residents.acquire(cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: sweep golden run: %w", err)
	}
	out := make([]SweepResult, 0, len(bitCounts))
	err = residents.run(e, cfg.Obs, func(base *Baseline) error {
		// One pool runs every entry: an entry's feed starts as soon as the
		// one before has handed out its last task, and each entry is
		// summarized by the worker that finishes its last run. Entries share
		// the task list and so the fork points: each is handed the rung the
		// one before ended on, and finds it again at its site.
		var walks []*walk
		var setupErr error
		p := newPool(cfg, cfg.Runs*len(bitCounts))
		p.drive(func() {
			var carried heldRung
			for _, bits := range bitCounts {
				c := cfg
				c.Bits = bits
				c.Name = fmt.Sprintf("%s/bits=%d", cfg.Name, bits)
				// A sweep reuses one Config for several campaigns; a single
				// journal path cannot checkpoint them all, so journaling is
				// per-campaign only.
				c.Journal, c.Resume = "", ""
				w, err := newWalk(c, base)
				if err != nil {
					setupErr = fmt.Errorf("campaign: sweep bits=%d: %w", bits, err)
					return
				}
				walks = append(walks, w)
				if carried = p.feed(w, carried); !w.fed {
					return
				}
			}
		})
		for _, w := range walks {
			w.finalize()
		}
		for _, w := range walks {
			if w.err != nil {
				// A failed prefix run ends the sweep at the entry it fed and
				// drops the runs of the entries before it still queued.
				if last := walks[len(walks)-1]; last.prefixErr != nil {
					w = last
				}
				return fmt.Errorf("campaign: sweep bits=%d: %w", w.cfg.Bits, w.err)
			}
			out = append(out, SweepResult{Bits: w.cfg.Bits, Summary: w.sum})
		}
		return setupErr
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
