package tainthub

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"chaser/internal/obs"
	"chaser/internal/wal"
)

// Durable is a Local hub whose every mutation is written ahead to a log,
// whose head is periodically compacted to bound replay time and disk use
// (see wal.go for the layout). A Durable hub killed with SIGKILL and reopened
// on the same path recovers exactly the entries it held, so an in-flight
// campaign's retried polls read from the reborn process what they would have
// read from the dead one.
type Durable struct {
	mu     sync.Mutex
	st     store
	path   string
	log    *wal.Log
	closed bool

	walRecords *obs.Counter // tainthub_wal_records_total
	walBytes   *obs.Counter // tainthub_wal_bytes_total
	snapshots  *obs.Counter // tainthub_wal_snapshots_total

	// recoveredRecords describes the last open, for operator logs.
	recoveredRecords int
}

var (
	_ Hub     = (*Durable)(nil)
	_ Retirer = (*Durable)(nil)
)

// DurableConfig configures OpenDurable. The zero value is usable.
type DurableConfig struct {
	Limits Limits
	// Obs, when set, receives tainthub_wal_records_total,
	// tainthub_wal_bytes_total, tainthub_wal_snapshots_total,
	// tainthub_replayed_total and the shared hub counters.
	Obs *obs.Registry
}

// OpenDurable opens (or creates) a durable hub persisted in the log at path.
// The compacted head is restored as it stands, the records after its
// checkpoint are replayed on top, and a torn or corrupt tail is truncated.
// Damage to the head — a bad header, another version, a replay that ends
// before the checkpoint — returns *CorruptError and leaves the file as it
// was: the head was fsynced, so damage there is real corruption, and
// starting without it would drop taint a receiver has yet to poll.
func OpenDurable(path string, cfg DurableConfig) (*Durable, error) {
	d := &Durable{
		st:   newStore(cfg.Limits, newHubObs(cfg.Obs)),
		path: path,
	}
	if cfg.Obs != nil {
		d.walRecords = cfg.Obs.Counter("tainthub_wal_records_total")
		d.walBytes = cfg.Obs.Counter("tainthub_wal_bytes_total")
		d.snapshots = cfg.Obs.Counter("tainthub_wal_snapshots_total")
	}

	// Read-only first, so a refused log is left untouched. Entries keep
	// their original publish stamps, so orphans re-evict after recovery.
	records, checkpointed := 0, false
	err := wal.Replay(path, maxWALPayload, func(p []byte) error {
		switch {
		case records == 0:
			if err := checkWALHeader(p); err != nil {
				return &CorruptError{File: path, Reason: "wal header: " + err.Error()}
			}
		case !checkpointed && p[0] == walRecCheckpoint:
			if decodeWALCheckpoint(p, &d.st.stats) != nil {
				return wal.ErrCorrupt
			}
			checkpointed = true
		default:
			m, err := decodeWALMutation(p)
			switch {
			case err != nil, !checkpointed && m.kind != walRecPublish:
				return wal.ErrCorrupt // undecodable or out of place: stop here
			case !checkpointed:
				d.st.put(m.k, m.seq, m.masks, m.stamp) // counted by the checkpoint
			case m.kind == walRecPublish:
				d.st.applyPublish(m.k, m.seq, m.masks, m.stamp)
				d.recoveredRecords++
			default:
				d.st.applyRetire(m.lo, m.hi)
				d.recoveredRecords++
			}
		}
		records++
		return nil
	})
	switch {
	case errors.Is(err, fs.ErrNotExist):
		d.log, err = wal.Create(path, walOptions, true, encodeWALHead(&d.st))
	case err == nil && !checkpointed:
		err = &CorruptError{File: path, Reason: fmt.Sprintf("replay ended after %d records, before the checkpoint", records)}
	case err == nil:
		// Truncate after the last record the replay accepted.
		n := 0
		d.log, err = wal.Open(path, walOptions, func([]byte) error {
			if n == records {
				return wal.ErrCorrupt
			}
			n++
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	d.st.stats.Replayed += uint64(d.recoveredRecords)
	if d.st.o != nil && d.recoveredRecords > 0 {
		d.st.o.replayed.Add(uint64(d.recoveredRecords))
	}
	return d, nil
}

// RecoveredRecords reports how many WAL records were replayed when this
// hub was opened (for operator startup logs).
func (d *Durable) RecoveredRecords() int { return d.recoveredRecords }

var errHubClosed = errors.New("tainthub: durable hub is closed")

func (d *Durable) logMutation(payload []byte) error {
	n, err := d.log.Append(payload)
	if err != nil {
		return err
	}
	if d.walRecords != nil {
		d.walRecords.Inc()
		d.walBytes.Add(uint64(n))
	}
	return nil
}

// Publish implements Hub: the record is in the WAL before the ack.
func (d *Durable) Publish(_ ReqID, k Key, seq uint64, masks []uint8) error {
	now := time.Now().UnixNano()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errHubClosed
	}
	d.st.maybeSweep(now)
	if err := d.st.checkPublish(k, seq, masks); err != nil {
		return err
	}
	if err := d.logMutation(encodeWALPublish(k, seq, now, masks)); err != nil {
		return err
	}
	d.st.applyPublish(k, seq, masks, now)
	return nil
}

// Poll implements Hub. A poll changes nothing, so it writes nothing.
func (d *Durable) Poll(_ ReqID, k Key, seq uint64) ([]uint8, bool, error) {
	now := time.Now().UnixNano()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, false, errHubClosed
	}
	d.st.maybeSweep(now)
	masks, ok := d.st.poll(k, seq)
	return masks, ok, nil
}

// Retire implements Retirer: the record is in the WAL before the entries
// go, so a recovered hub does not resurrect what a finished shard retired.
func (d *Durable) Retire(lo, hi int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errHubClosed
	}
	if err := d.logMutation(encodeWALRetire(lo, hi)); err != nil {
		return err
	}
	d.st.applyRetire(lo, hi)
	return nil
}

// Stats implements Hub.
func (d *Durable) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.st.snapshotStats()
}

// Sweep evicts entries older than the configured TTL.
func (d *Durable) Sweep() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0
	}
	return d.st.sweep(time.Now().UnixNano())
}

// WALSize returns the current log size in bytes (exported as the
// tainthub_wal_size_bytes gauge by cmd/tainthub).
func (d *Durable) WALSize() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Size()
}

// Snapshot compacts the log, bounding recovery time and disk use: its head
// is rewritten to hold exactly the hub's entries and counters, and the
// records appended since go. The new log is written beside the old one and
// renamed over it with the lock held, so a crash leaves one whole log or the
// other; if the rewrite fails, the old log stays open and keeps every record
// acknowledged after the failure.
func (d *Durable) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errHubClosed
	}
	return d.snapshotLocked()
}

func (d *Durable) snapshotLocked() error {
	d.st.sweep(time.Now().UnixNano())
	log, err := wal.Create(d.path, walOptions, true, encodeWALHead(&d.st))
	if err != nil {
		return err
	}
	d.log.Close()
	d.log = log
	if d.snapshots != nil {
		d.snapshots.Inc()
	}
	return nil
}

// Close compacts the log a final time and releases it. The hub rejects all
// operations afterwards.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	err := d.snapshotLocked()
	d.closed = true
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon releases the log WITHOUT a final compaction, leaving the on-disk
// state exactly as a kill -9 would. It exists so tests and crash drills
// can exercise WAL replay deterministically.
func (d *Durable) Abandon() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.log.Close()
}
