package campaign

import (
	"fmt"
	"sort"

	"chaser/internal/obs"
)

// Shard journal merging. A sharded campaign (the chaserd control plane)
// splits one run index space across workers, each journaling its shard to
// its own file. Re-enqueued shards — a worker died, its lease expired, a
// wedged worker kept appending after losing its lease — can leave two
// journals covering overlapping run indices. Because every run is a pure
// function of the campaign seed and the golden baseline, every record of an
// index describes the same outcome; the merge dedupes them deterministically
// instead of double-counting, and the merged summary is bitwise identical to
// an uninterrupted single-process campaign's.

// Summarize aggregates classified run outcomes exactly as Run does,
// enabling out-of-process summary reconstruction from merged journals.
// outcomes must be ordered by run index.
func Summarize(cfg Config, outcomes []RunOutcome) *Summary {
	return summarize(cfg, outcomes)
}

// MergeJournals reads one or more shard journals of a single campaign and
// reconstructs the campaign summary. Every journal's header must match cfg
// (the same validation a resume performs). Overlapping run indices — within
// one journal or across journals — are deduplicated deterministically: paths
// are processed in sorted order and the first occurrence of an index wins;
// each duplicate increments campaign_runs_deduped_total on reg. A torn or
// damaged tail is tolerated per journal. An index no journal covers makes the
// merge fail: a summary over a partial campaign would lie.
func MergeJournals(cfg Config, reg *obs.Registry, paths ...string) (*Summary, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("campaign: merge: no journals")
	}
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	want := headerFor(cfg)
	outcomes := make([]RunOutcome, want.Runs)
	seen := make([]bool, want.Runs)
	dupes := 0
	for _, path := range sorted {
		hdr, entries, fileDupes, err := readJournal(path)
		if err != nil {
			return nil, err
		}
		if hdr != want {
			return nil, fmt.Errorf(
				"campaign: journal %s was written by a different campaign (journal %+v, config %+v)",
				path, hdr, want)
		}
		dupes += fileDupes
		for _, e := range entries {
			if seen[e.Idx] {
				dupes++
				continue
			}
			seen[e.Idx] = true
			outcomes[e.Idx] = e.Outcome
		}
	}
	missing := 0
	for _, ok := range seen {
		if !ok {
			missing++
		}
	}
	if missing > 0 {
		return nil, fmt.Errorf("campaign: merge: %d of %d runs missing from %d journals", missing, want.Runs, len(paths))
	}
	if dupes > 0 {
		reg.Counter("campaign_runs_deduped_total").Add(uint64(dupes))
	}
	return summarize(cfg, outcomes), nil
}
