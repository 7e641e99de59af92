package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

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
// Startup compaction rewrites the log keeping only the `campaign` +
// terminal record of every finished campaign, so a long-lived chaserd's
// WAL stays proportional to its *active* state, not its history. That
// rewrite of everything is the only compaction there is, which is why the
// log is one file: segments would never be deleted one at a time. Each open
// also assigns the log a fresh random identity and numbers the
// replayed+appended records 0..n — the (logID, seq) pair is the shipping
// cursor a hot-standby follower replicates from (see replica.go): any cursor
// bearing a different logID forces a full resync, which is always possible
// because the store keeps the whole logical log in memory (control-plane
// records are tiny).
//
// Leases are deliberately NOT in the WAL: a restarted chaserd voids every
// lease by construction. Surviving workers notice at their next heartbeat
// (unknown lease), abandon the shard, and re-claim; their journaled runs
// are not lost. Durable leases would buy nothing but recovery complexity.
// Failover inherits the same contract: a freshly promoted follower has no
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
	// standalone mode). Replication rejects records from deposed epochs.
	Epoch uint64 `json:"e,omitempty"`
}

// StoreOptions tunes a Store beyond its directory.
type StoreOptions struct {
	// DataDir holds the run journals and merged summaries. In HA mode the
	// leader and follower each own a private WAL dir but must share DataDir
	// (workers write journals there and the merge reads them back, on
	// whichever node is leader at the time). Empty = the WAL dir itself.
	DataDir string
	// Fsync syncs the log after every append. Off by default —
	// the WAL's loss unit is "records after the last flushed one", and every
	// record is re-derivable from worker journals — but HA deployments that
	// want the replication stream to never run ahead of the leader's disk
	// can turn it on.
	Fsync bool
	// Chaos arms fault injection at the store's chaos sites (nil = off).
	Chaos *Chaos
}

// Store owns one node's durable control-plane state:
//
//	<dir>/wal/control.log                    the WAL
//	<data>/journals/<cid>-shard<N>.journal   per-shard run journals
//	<data>/summaries/<cid>.json              merged campaign summaries
//
// All methods are safe for concurrent use.
type Store struct {
	dir     string
	dataDir string
	opts    StoreOptions

	mu     sync.Mutex
	log    *wal.Log
	recs   []walRecord // the full logical log; a record's seq is its index
	logID  string
	epoch  uint64       // stamped on every local append
	guard  func() error // leadership check before local appends (nil = none)
	notify chan struct{}
	closed bool
}

// maxWALRecord bounds one control-plane record (a spec is a few hundred
// bytes).
const maxWALRecord = 1 << 24

// newLogID derives a fresh log identity for this open. It only has to be
// unique across opens of stores a follower might ship from, so nanoseconds
// + pid is plenty.
func newLogID() string {
	return fmt.Sprintf("%x-%x", time.Now().UnixNano(), os.Getpid())
}

// OpenStore opens (creating if necessary) the store at dir, replays the
// WAL, truncates any torn or corrupt tail so later appends land after valid
// records only, and compacts fully-terminal campaigns. The returned records
// are the valid (compacted) log in append order.
func OpenStore(dir string, opts StoreOptions) (*Store, []walRecord, error) {
	dataDir := opts.DataDir
	if dataDir == "" {
		dataDir = dir
	}
	for _, d := range []string{filepath.Join(dir, "wal"), filepath.Join(dataDir, "journals"), filepath.Join(dataDir, "summaries")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, fmt.Errorf("server: store dir: %w", err)
		}
	}
	s := &Store{
		dir:     dir,
		dataDir: dataDir,
		opts:    opts,
		logID:   newLogID(),
		notify:  make(chan struct{}),
	}
	var err error
	s.log, err = wal.Open(s.walPath(), s.walOptions(), func(p []byte) error {
		var rec walRecord
		if json.Unmarshal(p, &rec) != nil {
			return wal.ErrCorrupt
		}
		s.recs = append(s.recs, rec)
		return nil
	})
	switch compacted, shrunk := compactRecords(s.recs); {
	case errors.Is(err, fs.ErrNotExist):
		err = s.replaceLog(nil, false)
	case err == nil && shrunk:
		s.log.Close()
		err = s.replaceLog(compacted, true)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("server: open wal: %w", err)
	}
	return s, append([]walRecord(nil), s.recs...), nil
}

func (s *Store) walPath() string { return filepath.Join(s.dir, "wal", "control.log") }

func (s *Store) walOptions() wal.Options {
	return wal.Options{MaxPayload: maxWALRecord, Sync: s.opts.Fsync, Fault: s.opts.Chaos.Hit}
}

// replaceLog atomically replaces the WAL and the logical log with exactly
// recs: one file rename, so a crash leaves either log whole.
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
	s.log, s.recs = log, recs
	return nil
}

// compactRecords drops the history of fully-terminal campaigns, keeping
// only their "campaign" record (which carries the spec, the ID high-water
// mark and the hub namespace window) and the terminal "complete"/"failed"
// record. Reports whether anything was dropped.
func compactRecords(recs []walRecord) ([]walRecord, bool) {
	terminal := make(map[string]bool)
	for _, rec := range recs {
		if rec.T == "complete" || rec.T == "failed" {
			terminal[rec.C] = true
		}
	}
	if len(terminal) == 0 {
		return recs, false
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
	return out, len(out) < len(recs)
}

// LogID identifies this open of the store; it changes on every OpenStore
// and Reset. Together with a record index it forms the shipping cursor.
func (s *Store) LogID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logID
}

// Seq returns the number of records in the logical log (the next seq).
func (s *Store) Seq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Records returns a copy of the full logical log.
func (s *Store) Records() []walRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]walRecord(nil), s.recs...)
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
	s.mu.Lock()
	guard := s.guard
	epoch := s.epoch
	s.mu.Unlock()
	// The guard may read the fence file; keep it outside the store lock so
	// a slow fence check cannot stall the replication tail.
	if guard != nil {
		if err := guard(); err != nil {
			return err
		}
	}
	rec.Epoch = epoch
	return s.append(rec)
}

// ApplyReplicated appends a record received from the replication stream,
// bypassing the leadership guard (followers are never leaders) and keeping
// the originating leader's epoch stamp.
func (s *Store) ApplyReplicated(rec walRecord) error {
	return s.append(rec)
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
	s.recs = append(s.recs, rec)
	close(s.notify)
	s.notify = make(chan struct{})
	return nil
}

// WaitRecords returns the records from seq `from` on, blocking up to
// timeout for at least one to exist. A nil result means the timeout
// elapsed. This is the leader half of the shipping cursor: the replication
// handler parks here between appends.
func (s *Store) WaitRecords(from int, timeout time.Duration) []walRecord {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil
		}
		if len(s.recs) > from {
			out := append([]walRecord(nil), s.recs[from:]...)
			s.mu.Unlock()
			return out
		}
		ch := s.notify
		s.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil
		}
		t := time.NewTimer(wait)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return nil
		}
	}
}

// Reset wipes the WAL and logical log and assigns a fresh log identity —
// the follower's answer to a shipping-cursor mismatch (new leader, or a
// leader that restarted and compacted). Journals and summaries are left
// alone: they are content-addressed by campaign and shard, and the rebuilt
// log re-references them.
func (s *Store) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("server: store closed")
	}
	s.log.Close()
	if err := s.replaceLog(nil, false); err != nil {
		return fmt.Errorf("server: reset wal: %w", err)
	}
	s.logID = newLogID()
	close(s.notify)
	s.notify = make(chan struct{})
	return nil
}

// JournalPath returns the run journal path for one shard of one campaign.
// The path is stable across re-enqueues, chaserd restarts and failovers —
// that stability is what lets a re-leased shard resume instead of
// re-executing (in HA mode, DataDir is shared between the peers).
func (s *Store) JournalPath(cid string, shard int) string {
	return filepath.Join(s.dataDir, "journals", fmt.Sprintf("%s-shard%04d.journal", cid, shard))
}

// SummaryPath returns the merged summary path for one campaign.
func (s *Store) SummaryPath(cid string) string {
	return filepath.Join(s.dataDir, "summaries", cid+".json")
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
	close(s.notify)
	s.notify = make(chan struct{})
	return s.log.Close()
}
