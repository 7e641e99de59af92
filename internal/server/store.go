package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"chaser/internal/wal"
)

// The control plane's durable state is one internal/wal Log of JSON
// records. Every state transition (submit, shard done, requeue, quarantine,
// complete, fail) is one unbuffered O_APPEND write, so a chaserd killed at
// any instant loses at most the record being written; replaying the log on
// startup rebuilds the scheduler exactly, and shards that were mid-flight
// simply return to the pending queue (their run journals make the
// re-execution incremental).
//
// Every open rewrites the log: it replays the intact prefix read-only,
// drops the history of finished campaigns (keeping only the `campaign` +
// terminal record of each), and renames a fresh file holding exactly those
// records over the old one. The log therefore stays proportional to the
// *active* state, not the history, which is why it is one file: segments
// would never be deleted one at a time. The rename is also the HA fence on
// the log itself. An HA pair shares the store directory and a node opens
// it only on promotion, so a deposed leader's descriptor points at the
// file the new leader replaced: neither its late append nor the truncate
// that repairs its own short write can reach the new leader's log.
//
// Leases are deliberately NOT in the WAL: a restarted chaserd voids every
// lease by construction. Surviving workers notice at their next heartbeat
// (unknown lease), abandon the shard, and re-claim; their journaled runs
// are not lost. Durable leases would buy nothing but recovery complexity.
// Failover inherits the same contract: a freshly promoted standby has no
// leases, which is exactly a restart.

// walRecord is one control-plane state transition.
type walRecord struct {
	// T is the record type: "campaign", "done", "requeue", "quarantine",
	// "complete", "failed".
	T string `json:"t"`
	// C is the campaign ID.
	C string `json:"c,omitempty"`
	// Shard is the shard index within the campaign.
	Shard int `json:"s,omitempty"`
	// Spec rides the "campaign" record.
	Spec *Spec `json:"spec,omitempty"`
	// Hub is the TaintHub address assigned to the campaign ("" = private
	// in-process hubs).
	Hub string `json:"hub,omitempty"`
	// NSBase is the campaign's hub namespace base.
	NSBase int `json:"ns_base,omitempty"`
	// Retries is the shard's requeue count ("requeue" records).
	Retries int `json:"retries,omitempty"`
	// Reason is why a shard was requeued or quarantined.
	Reason string `json:"reason,omitempty"`
	// Err is a campaign-level failure ("failed" records).
	Err string `json:"err,omitempty"`
	// Epoch is the fencing epoch of the leader that wrote the record (0 in
	// standalone mode). Replay does not filter on it: a deposed leader's
	// late appends land in the file its successor's open replaced.
	Epoch uint64 `json:"e,omitempty"`
}

// StoreOptions tunes a Store beyond its directory.
type StoreOptions struct {
	// Fsync syncs the log after every append. Off by default — the WAL's
	// loss unit is "records after the last flushed one", and every record is
	// re-derivable from worker journals — but a deployment that wants every
	// acknowledged transition to survive a power cut can turn it on.
	Fsync bool
	// fault is the log's wal.Options.Fault hook (tests; nil = none).
	fault func(site string) bool
}

// Store owns chaserd's durable control-plane state, all under one
// directory (an HA pair shares it):
//
//	<dir>/wal/control.log                   the WAL
//	<dir>/journals/<cid>-shard<N>.journal   per-shard run journals
//	<dir>/summaries/<cid>.json              merged campaign summaries
//
// All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts StoreOptions

	mu     sync.Mutex
	log    *wal.Log
	seq    int          // records in the log: replayed, then appended
	epoch  uint64       // stamped on every local append
	guard  func() error // leadership check before local appends (nil = none)
	closed bool
}

// maxWALRecord bounds one control-plane record (a spec is a few hundred
// bytes).
const maxWALRecord = 1 << 24

// OpenStore opens (creating if necessary) the store at dir: it replays the
// WAL's intact prefix without modifying it, compacts fully-terminal
// campaigns, and atomically replaces the log with a new file holding
// exactly the records it returns, in append order. A torn or corrupt tail
// is thereby dropped, and later appends go to the new file. A missing log
// is created without an fsync; an existing one is rewritten durably.
func OpenStore(dir string, opts StoreOptions) (*Store, []walRecord, error) {
	for _, d := range []string{"wal", "journals", "summaries"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return nil, nil, fmt.Errorf("server: store dir: %w", err)
		}
	}
	s := &Store{dir: dir, opts: opts}
	var recs []walRecord
	err := wal.Replay(s.walPath(), maxWALRecord, func(p []byte) error {
		var rec walRecord
		if json.Unmarshal(p, &rec) != nil {
			return wal.ErrCorrupt
		}
		recs = append(recs, rec)
		return nil
	})
	existed := err == nil
	if errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	if err == nil {
		recs = compactRecords(recs)
		err = s.replaceLog(recs, existed)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("server: open wal: %w", err)
	}
	return s, recs, nil
}

func (s *Store) walPath() string { return filepath.Join(s.dir, "wal", "control.log") }

func (s *Store) walOptions() wal.Options {
	return wal.Options{MaxPayload: maxWALRecord, Sync: s.opts.Fsync, Fault: s.opts.fault}
}

// replaceLog atomically replaces the WAL with exactly recs: one file
// rename, so a crash leaves either log whole.
func (s *Store) replaceLog(recs []walRecord, durable bool) error {
	payloads := make([][]byte, len(recs))
	for i, rec := range recs {
		var err error
		if payloads[i], err = json.Marshal(rec); err != nil {
			return err
		}
	}
	log, err := wal.Create(s.walPath(), s.walOptions(), durable, payloads)
	if err != nil {
		return err
	}
	s.log, s.seq = log, len(recs)
	return nil
}

// compactRecords drops the history of fully-terminal campaigns, keeping
// only their "campaign" record (which carries the spec, the ID high-water
// mark and the hub namespace window) and the terminal "complete"/"failed"
// record.
func compactRecords(recs []walRecord) []walRecord {
	terminal := make(map[string]bool)
	for _, rec := range recs {
		if rec.T == "complete" || rec.T == "failed" {
			terminal[rec.C] = true
		}
	}
	if len(terminal) == 0 {
		return recs
	}
	out := make([]walRecord, 0, len(recs))
	for _, rec := range recs {
		if terminal[rec.C] {
			switch rec.T {
			case "campaign", "complete", "failed":
			default:
				continue
			}
		}
		out = append(out, rec)
	}
	return out
}

// Seq returns the number of records in the log: those the open replayed
// plus those appended since.
func (s *Store) Seq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// SetEpoch stamps every subsequent local append with the given fencing
// epoch (a freshly promoted leader calls this before serving writes).
func (s *Store) SetEpoch(e uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = e
}

// SetGuard installs the leadership check local appends must pass. The
// guard runs outside the store lock order concern (it may hit the fence
// file); a non-nil error fails the append with no bytes written.
func (s *Store) SetGuard(g func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.guard = g
}

// Append durably records one state transition as one frame of the log.
// Appends pass the leadership guard first — a deposed leader's writes fail
// here, with no bytes on disk.
func (s *Store) Append(rec walRecord) error {
	epoch, err := s.leading()
	if err != nil {
		return err
	}
	rec.Epoch = epoch
	return s.append(rec)
}

// leading passes the leadership guard, outside the store lock so a slow
// fence check cannot stall a concurrent append, and returns the epoch.
func (s *Store) leading() (uint64, error) {
	s.mu.Lock()
	guard, epoch := s.guard, s.epoch
	s.mu.Unlock()
	if guard == nil {
		return epoch, nil
	}
	return epoch, guard()
}

func (s *Store) append(rec walRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("server: store closed")
	}
	// A failed append (write or fsync) does not admit the record to the
	// logical log: callers retry or surface the error, and every record type
	// is idempotent to replay should a crash find its bytes on disk after all.
	if _, err := s.log.Append(payload); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.seq++
	return nil
}

// JournalPath returns the run journal path for one shard of one campaign.
// The path is stable across re-enqueues, chaserd restarts and failovers —
// that stability is what lets a re-leased shard resume instead of
// re-executing (an HA pair shares the store directory).
func (s *Store) JournalPath(cid string, shard int) string {
	return filepath.Join(s.dir, "journals", fmt.Sprintf("%s-shard%04d.journal", cid, shard))
}

// SummaryPath returns the merged summary path for one campaign.
func (s *Store) SummaryPath(cid string) string {
	return filepath.Join(s.dir, "summaries", cid+".json")
}

// WriteSummary persists a campaign's merged summary atomically: readers
// never observe a half-written file.
func (s *Store) WriteSummary(cid string, data []byte) error {
	if err := wal.WriteFile(s.SummaryPath(cid), data, false); err != nil {
		return fmt.Errorf("server: write summary: %w", err)
	}
	return nil
}

// ReadSummary loads a campaign's merged summary ("" if absent).
func (s *Store) ReadSummary(cid string) ([]byte, error) {
	raw, err := os.ReadFile(s.SummaryPath(cid))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return raw, err
}

// Close closes the WAL. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}
