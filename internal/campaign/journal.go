package campaign

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"

	"chaser/internal/wal"
)

// Checkpoint/resume. A campaign journal is an internal/wal Log of JSON
// records: one header describing the campaign, then one record per
// completed run in completion order. Every record is checksummed, so a
// flipped byte that would still parse as JSON (an index or outcome digit)
// ends the read like a torn tail does instead of being merged into the
// report. Workers append entries as runs finish, so a campaign killed at
// any moment (SIGINT, OOM, power loss) loses at most the runs that were
// still in flight; resuming re-executes only those. Because every
// run's injection point and seed are derived deterministically from
// Config.Seed, the re-executed runs produce the same outcomes they would
// have, and a resumed campaign's summary is identical to an uninterrupted
// one.

// journalVersion is bumped when the record schema changes incompatibly.
const journalVersion = 1

// journalHeader is the first record of a journal. It pins the campaign
// parameters that determine per-run outcomes, so a resume with a different
// configuration is rejected instead of silently producing a lying summary.
type journalHeader struct {
	V     int    `json:"v"`
	Name  string `json:"name"`
	Runs  int    `json:"runs"`
	Seed  int64  `json:"seed"`
	Bits  int    `json:"bits"`
	World int    `json:"world"`
	Trace bool   `json:"trace"`
	// Site pins Config.InjectExec: a pinned-site campaign draws different
	// injection points than a sampling one, so resuming across the two must
	// be rejected. Journals from before this field decode as 0, matching
	// only campaigns without InjectExec — exactly the ones that wrote them.
	Site uint64 `json:"site,omitempty"`
}

func headerFor(cfg Config) journalHeader {
	bits := cfg.Bits
	if bits == 0 {
		bits = 1
	}
	return journalHeader{
		V:     journalVersion,
		Name:  cfg.Name,
		Runs:  cfg.Runs,
		Seed:  cfg.Seed,
		Bits:  bits,
		World: worldSize(cfg.WorldSize),
		Trace: cfg.Trace,
		Site:  cfg.InjectExec,
	}
}

// journalEntry is one completed run.
type journalEntry struct {
	Idx     int        `json:"idx"`
	Outcome RunOutcome `json:"outcome"`
}

// maxJournalRecord bounds one record (an outcome with a panic message and
// its stack is the largest).
const maxJournalRecord = 1 << 24

var journalOptions = wal.Options{MaxPayload: maxJournalRecord}

// Journal is the open, append side of a campaign journal. Append is safe
// for concurrent use by campaign workers.
type Journal struct {
	mu   sync.Mutex
	log  *wal.Log
	path string
}

// CreateJournal starts a fresh journal at path (replacing any existing
// file) holding the header.
func CreateJournal(path string, cfg Config) (*Journal, error) {
	hdr, err := json.Marshal(headerFor(cfg))
	if err != nil {
		return nil, err
	}
	log, err := wal.Create(path, journalOptions, false, [][]byte{hdr})
	if err != nil {
		return nil, fmt.Errorf("campaign: create journal: %w", err)
	}
	return &Journal{log: log, path: path}, nil
}

// readJournal reads one journal file without touching it: the header, the
// valid entries in file order with duplicate indices dropped
// deterministically (first occurrence wins — every occurrence of an index
// describes the same deterministic run, so the earliest append is the
// canonical one), and the number of duplicate entries dropped. Damage — a
// tail torn by a crash mid-append, a record whose checksum or JSON does not
// hold — is tolerated: reading stops there and the runs behind it simply
// count as incomplete.
func readJournal(path string) (journalHeader, []journalEntry, int, error) {
	var hdr journalHeader
	var seen map[int]bool
	var valid []journalEntry
	dupes := 0
	err := wal.Replay(path, maxJournalRecord, func(p []byte) error {
		if seen == nil {
			if err := json.Unmarshal(p, &hdr); err != nil {
				return fmt.Errorf("bad header: %w", err)
			}
			seen = make(map[int]bool)
			return nil
		}
		var e journalEntry
		if json.Unmarshal(p, &e) != nil {
			return wal.ErrCorrupt
		}
		if e.Idx < 0 || e.Idx >= hdr.Runs {
			return fmt.Errorf("entry index %d out of range [0,%d)", e.Idx, hdr.Runs)
		}
		if seen[e.Idx] {
			dupes++
			return nil
		}
		seen[e.Idx] = true
		valid = append(valid, e)
		return nil
	})
	if err == nil && seen == nil {
		err = fmt.Errorf("no intact header")
	}
	if err != nil {
		return hdr, nil, 0, fmt.Errorf("campaign: read journal %s: %w", path, err)
	}
	return hdr, valid, dupes, nil
}

// ResumeJournal reopens an existing journal for a resumed campaign. It
// validates the header against cfg (same campaign parameters, or the
// resumed summary would lie) and reads the completed entries, before
// anything is written: a file that is not this campaign's journal is left
// as it was. Re-journaled runs are dropped (counted as
// campaign_runs_deduped_total on cfg.Obs) and the file rewritten without
// them; otherwise the log is opened in place, which truncates a tail torn by
// a crash mid-append so that later entries never land behind damage. The
// returned map holds the outcomes of already-finished runs by index.
func ResumeJournal(path string, cfg Config) (*Journal, map[int]RunOutcome, error) {
	hdr, valid, dupes, err := readJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if want := headerFor(cfg); hdr != want {
		return nil, nil, fmt.Errorf(
			"campaign: journal %s was written by a different campaign (journal %+v, config %+v)",
			path, hdr, want)
	}
	done := make(map[int]RunOutcome, len(valid))
	for _, e := range valid {
		done[e.Idx] = e.Outcome
	}
	var log *wal.Log
	if dupes > 0 {
		cfg.Obs.Counter("campaign_runs_deduped_total").Add(uint64(dupes))
		log, err = compactJournal(path, hdr, valid)
	} else {
		log, err = wal.Open(path, journalOptions, nil)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: reopen journal: %w", err)
	}
	return &Journal{log: log, path: path}, done, nil
}

// compactJournal atomically replaces the journal with its header and valid
// entries.
func compactJournal(path string, hdr journalHeader, valid []journalEntry) (*wal.Log, error) {
	payloads := make([][]byte, 1+len(valid))
	var err error
	if payloads[0], err = json.Marshal(hdr); err != nil {
		return nil, err
	}
	for i, e := range valid {
		if payloads[1+i], err = json.Marshal(e); err != nil {
			return nil, err
		}
	}
	return wal.Create(path, journalOptions, false, payloads)
}

// Append records one completed run as one frame of the log. A failed
// append is repaired by the log (the partial frame is cut off), so the
// entries other workers append afterwards stay readable.
func (j *Journal) Append(idx int, o RunOutcome) error {
	payload, err := json.Marshal(journalEntry{Idx: idx, Outcome: o})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return fmt.Errorf("campaign: journal closed")
	}
	if _, err := j.log.Append(payload); err != nil {
		return fmt.Errorf("campaign: journal append: %w", err)
	}
	return nil
}

// Path returns the journal's file path ("" once closed).
func (j *Journal) Path() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return ""
	}
	return filepath.Clean(j.path)
}

// Close closes the journal file. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	return err
}
