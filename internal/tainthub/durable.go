package tainthub

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"time"

	"chaser/internal/obs"
	"chaser/internal/tainthub/codec"
	"chaser/internal/wal"
)

// Durable is a Local hub whose every mutation is written ahead to a log,
// with periodic snapshots bounding replay time and disk use. A Durable
// hub killed with SIGKILL and reopened on the same path recovers exactly the
// entries it held, so an in-flight campaign's retried polls read from the
// reborn process what they would have read from the dead one.
//
// Recovery protocol. The snapshot at path+".snap" carries generation S;
// the WAL header carries generation W. A snapshot written at generation S
// always starts a fresh WAL with header S+1, so on open:
//
//	W == S+1 → normal: restore snapshot, replay WAL, truncate its torn tail
//	W <= S   → stale WAL from before the latest snapshot survived a crash
//	           between rename(snap) and the log's replacement: ignore it
//	W >  S+1 → the snapshot pairing this WAL was lost: refuse (CorruptError)
//	no WAL / torn header → restore snapshot alone, start WAL fresh at S+1
type Durable struct {
	mu     sync.Mutex
	st     store
	path   string // WAL path; snapshot lives at path+".snap"
	log    *wal.Log
	gen    uint64 // generation of the current WAL
	closed bool

	walRecords *obs.Counter // tainthub_wal_records_total
	walBytes   *obs.Counter // tainthub_wal_bytes_total
	snapshots  *obs.Counter // tainthub_wal_snapshots_total

	// Replayed / RecoveredBytes describe the last open, for operator logs.
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

// snapshot records, encoded with the codec package's varint/RLE primitives.
type snapshotRec struct {
	Gen     uint64
	Stats   Stats
	Entries []snapshotEntryRec
}

type snapshotEntryRec struct {
	K     Key
	Seq   uint64
	Masks []uint8
	Stamp int64
}

const (
	snapMagic   = 0x32504e43 // "CNP2" little-endian
	snapVersion = 2          // of the binary payload layout (v1 carried reply caches)
	snapPrefix  = 5          // magic + version byte, ahead of the packed fields
)

// encodeSnapshot packs a snapshot record: magic, version byte, then the
// fields with the codec primitives — varints and run-length-encoded masks,
// the same encoding the wire and the WAL use.
func encodeSnapshot(snap *snapshotRec) []byte {
	b := le.AppendUint32(nil, snapMagic)
	b = append(b, snapVersion)
	b = codec.AppendUvarint(b, snap.Gen)
	st := snap.Stats
	for _, v := range []uint64{st.Published, st.Polls, st.Hits, uint64(st.Pending), st.Evicted, st.Replayed} {
		b = codec.AppendUvarint(b, v)
	}
	b = codec.AppendUvarint(b, uint64(len(snap.Entries)))
	for _, e := range snap.Entries {
		b = codec.AppendSvarint(b, int64(e.K.Src))
		b = codec.AppendSvarint(b, int64(e.K.Dst))
		b = codec.AppendSvarint(b, int64(e.K.Tag))
		b = codec.AppendSvarint(b, int64(e.K.NS))
		b = codec.AppendUvarint(b, e.Seq)
		b = codec.AppendSvarint(b, e.Stamp)
		b = codec.AppendMasks(b, e.Masks)
	}
	return b
}

func decodeSnapshotPayload(b []byte) (*snapshotRec, error) {
	var snap snapshotRec
	var err error
	if snap.Gen, b, err = codec.ConsumeUvarint(b); err != nil {
		return nil, err
	}
	var pending uint64
	stats := []*uint64{
		&snap.Stats.Published, &snap.Stats.Polls, &snap.Stats.Hits, &pending,
		&snap.Stats.Evicted, &snap.Stats.Replayed,
	}
	for _, f := range stats {
		if *f, b, err = codec.ConsumeUvarint(b); err != nil {
			return nil, err
		}
	}
	snap.Stats.Pending = int(pending)
	n, b, err := codec.ConsumeUvarint(b)
	if err != nil || n > maxSnapItems {
		return nil, fmt.Errorf("entry count: %w", orCorrupt(err))
	}
	snap.Entries = make([]snapshotEntryRec, 0, n)
	for i := uint64(0); i < n; i++ {
		var e snapshotEntryRec
		key := []*int{&e.K.Src, &e.K.Dst, &e.K.Tag, &e.K.NS}
		for _, f := range key {
			var v int64
			if v, b, err = codec.ConsumeSvarint(b); err != nil {
				return nil, err
			}
			*f = int(v)
		}
		if e.Seq, b, err = codec.ConsumeUvarint(b); err != nil {
			return nil, err
		}
		if e.Stamp, b, err = codec.ConsumeSvarint(b); err != nil {
			return nil, err
		}
		if e.Masks, b, err = codec.ConsumeMasks(b, maxWALPayload); err != nil {
			return nil, err
		}
		snap.Entries = append(snap.Entries, e)
	}
	if len(b) != 0 {
		return nil, errors.New("trailing bytes after snapshot payload")
	}
	return &snap, nil
}

// maxSnapItems bounds declared collection sizes before allocation.
const maxSnapItems = 1 << 26

// orCorrupt keeps error wrapping total when a count check fails on a
// bounds violation rather than a decode error.
func orCorrupt(err error) error {
	if err != nil {
		return err
	}
	return errors.New("over limit")
}

// writeSnapshot atomically replaces path with the snapshot as one frame,
// fsynced before the rename. The version byte is the refusal hook: a future
// layout change bumps it, and old code refuses the file with *CorruptError
// instead of silently misdecoding it.
func writeSnapshot(path string, snap *snapshotRec) error {
	return wal.WriteFile(path, wal.AppendFrame(nil, encodeSnapshot(snap)), true)
}

// loadSnapshot reads a snapshot; a missing file returns (nil, nil). Any
// structural damage is a *CorruptError — a half-written snapshot cannot
// exist (writes go through rename), so damage means real corruption and
// silently starting empty would drop taint a receiver has yet to poll. Any
// version byte but the current one is refused.
func loadSnapshot(path string) (*snapshotRec, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	corrupt := func(reason string) (*snapshotRec, error) {
		return nil, &CorruptError{File: path, Reason: reason}
	}
	r := bytes.NewReader(raw)
	rec, err := wal.ReadFrame(r, len(raw))
	if err != nil {
		return corrupt("snapshot frame: " + err.Error())
	}
	if r.Len() != 0 {
		return corrupt(fmt.Sprintf("%d trailing bytes after snapshot frame", r.Len()))
	}
	if len(rec) < snapPrefix || le.Uint32(rec[0:4]) != snapMagic {
		return corrupt("bad snapshot magic")
	}
	if v := rec[4]; v != snapVersion {
		return corrupt(fmt.Sprintf("unsupported snapshot version %d (have %d)", v, snapVersion))
	}
	snap, err := decodeSnapshotPayload(rec[snapPrefix:])
	if err != nil {
		return corrupt("snapshot decode: " + err.Error())
	}
	return snap, nil
}

// OpenDurable opens (or creates) a durable hub persisted at path (the
// write-ahead log; the paired snapshot lives at path+".snap"). Existing
// state is recovered per the generation protocol above. Structural
// corruption — as opposed to an ordinary torn tail — returns *CorruptError.
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

	snap, err := loadSnapshot(path + ".snap")
	if err != nil {
		return nil, err
	}
	var snapGen uint64
	if snap != nil {
		d.st.restore(snap)
		snapGen = snap.Gen
	}

	// One pass over the log. The header record decides what happens to the
	// rest: replayed on top of the snapshot (W == S+1), skipped as stale
	// (W <= S), or the open refused (W > S+1). Entries keep their original
	// publish stamps, so orphans re-evict after recovery.
	var walGen uint64
	hasHeader := false
	log, err := wal.Open(path, walOptions, func(p []byte) error {
		if !hasHeader {
			g, err := decodeWALHeader(p)
			if err != nil {
				return &CorruptError{File: path, Reason: "wal header: " + err.Error()}
			}
			if g > snapGen+1 {
				return &CorruptError{
					File:   path,
					Reason: fmt.Sprintf("wal generation %d but snapshot generation %d: missing snapshot", g, snapGen),
				}
			}
			walGen, hasHeader = g, true
			return nil
		}
		if walGen <= snapGen {
			return nil
		}
		m, err := decodeWALMutation(p)
		if err != nil {
			return wal.ErrCorrupt // undecodable record: stop, truncate
		}
		switch m.kind {
		case walRecPublish:
			d.st.applyPublish(m.k, m.seq, m.masks, m.stamp)
		case walRecRetire:
			d.st.applyRetire(m.lo, m.hi)
		}
		d.recoveredRecords++
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	d.st.stats.Replayed += uint64(d.recoveredRecords)
	if d.st.o != nil && d.recoveredRecords > 0 {
		d.st.o.replayed.Add(uint64(d.recoveredRecords))
	}
	d.gen = snapGen + 1
	if !hasHeader || walGen <= snapGen {
		// No log, one torn before its header, or a stale one: start
		// generation S+1 on a fresh log.
		if log != nil {
			log.Close()
		}
		if log, err = wal.Create(path, walOptions, true, [][]byte{encodeWALHeader(d.gen)}); err != nil {
			return nil, err
		}
	}
	d.log = log
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

// Snapshot persists the full state to path+".snap" and restarts the WAL,
// bounding recovery time. The lock is held across the entire sequence —
// encode, rename, new log — so a crash at any point leaves either the old
// (snapshot, log) pair or the new one, never a mix the generation check
// can't classify.
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
	if err := writeSnapshot(d.path+".snap", d.st.export(d.gen)); err != nil {
		return err
	}
	// The snapshot at generation d.gen covers everything in the log; a
	// crash before the log is replaced leaves a WAL with gen <= snapshot
	// gen, which recovery ignores as stale.
	log, err := wal.Create(d.path, walOptions, true, [][]byte{encodeWALHeader(d.gen + 1)})
	if err != nil {
		return err
	}
	d.log.Close()
	d.log = log
	d.gen++
	if d.snapshots != nil {
		d.snapshots.Inc()
	}
	return nil
}

// Close takes a final snapshot and releases the log. The hub rejects all
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

// Abandon releases the log WITHOUT a final snapshot, leaving the on-disk
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
