package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"chaser/internal/wal"
)

// Leader election and fencing. HA chaserd pairs share a tiny fence file —
// a lease: {epoch, holder, expires} — one internal/wal frame, like every
// other durable byte in this tree. Whoever holds the live lease is leader;
// epochs are strictly monotonic, bumped on every acquisition, and every
// durable write the leader makes is stamped with its epoch. The fencing
// rules:
//
//  1. To lead, acquire the lease: allowed only when the current lease is
//     expired (or held by you). The new epoch is max(file, everything this
//     process ever saw)+1, so even a corrupted fence file cannot move
//     epochs backward.
//  2. To stay leader, renew before the lease expires. A renewal that finds
//     a different holder or a higher epoch means you were deposed: demote
//     immediately.
//  3. Every local WAL append first validates the lease (Validate). A
//     deposed leader's writes fail with ErrFenced before any byte lands —
//     no dual-leader writes, ever. Control-plane appends are rare, so the
//     extra fence read per append costs microseconds and buys the strict
//     "zero accepted writes from a deposed epoch" guarantee.
//  4. Every promotion opens the shared store, which renames a rewritten
//     log over the old one (store.go). An append the deposed leader
//     validated just before losing the lease still reaches only the file
//     it had open, which is no longer the log — and so does the truncate
//     that repairs its own short write.
//
// Mutual exclusion on the fence file itself is flock(2): read-modify-write
// cycles are serialized, so two candidates racing to acquire cannot both
// win one epoch (the loser sees the winner's record and observes). The
// file lives wherever both peers can reach it — for the single-machine
// deployments the tests and smokes exercise, any local path.

// ErrFenced fails a local append attempted without a live leader lease.
var ErrFenced = errors.New("server: append fenced: not the leader")

// ErrDeposed reports a renewal or validation that discovered a newer
// leader. The holder field names the usurper when known.
type DeposedError struct {
	Epoch  uint64 // our epoch
	Seen   uint64 // the newer epoch observed
	Holder string
}

func (e *DeposedError) Error() string {
	return fmt.Sprintf("server: deposed: epoch %d superseded by %d (holder %s)", e.Epoch, e.Seen, e.Holder)
}

// fenceDoc is the durable lease record.
type fenceDoc struct {
	Epoch   uint64 `json:"epoch"`
	Holder  string `json:"holder"`  // the leader's advertise URL
	Expires int64  `json:"expires"` // unix nanoseconds
}

// Fencer manages one node's view of the fence file. Safe for concurrent
// use; every operation opens, flocks, reads, optionally writes, and
// releases the file, so crashed holders never leave the fence wedged
// (flock dies with the process).
type Fencer struct {
	path string
	self string
	ttl  time.Duration
	now  func() time.Time

	mu      sync.Mutex
	epoch   uint64 // lease we hold (0 = not leader)
	maxSeen uint64 // highest epoch ever observed (monotonicity floor)
}

// NewFencer builds a fencer for one node. self is the node's advertise
// URL (it doubles as the holder identity in the fence file); now is its
// clock (nil = time.Now).
func NewFencer(path, self string, ttl time.Duration, now func() time.Time) *Fencer {
	if now == nil {
		now = time.Now
	}
	return &Fencer{path: path, self: self, ttl: ttl, now: now}
}

// withFence runs fn with the fence file exclusively locked, passing the
// current doc (zero doc if absent or damaged). If fn returns a non-nil
// doc, it is written back (truncate + write + sync) before unlock.
func (f *Fencer) withFence(fn func(cur fenceDoc) (*fenceDoc, error)) error {
	fd, err := os.OpenFile(f.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("server: fence open: %w", err)
	}
	defer fd.Close()
	if err := syscall.Flock(int(fd.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("server: fence lock: %w", err)
	}
	defer syscall.Flock(int(fd.Fd()), syscall.LOCK_UN)
	// A damaged fence (torn write, bit rot) reads as the zero doc: the
	// lease is up for grabs, and epoch monotonicity survives via maxSeen.
	var cur fenceDoc
	payload, err := wal.ReadFrame(fd, maxFenceDoc)
	switch {
	case err == nil:
		if json.Unmarshal(payload, &cur) != nil {
			cur = fenceDoc{}
		}
	case err == io.EOF, errors.Is(err, wal.ErrTorn), errors.Is(err, wal.ErrCorrupt):
	default:
		return fmt.Errorf("server: fence read: %w", err)
	}
	next, err := fn(cur)
	if err != nil {
		return err
	}
	if next == nil {
		return nil
	}
	payload, err = json.Marshal(*next)
	if err != nil {
		return err
	}
	if err := fd.Truncate(0); err != nil {
		return fmt.Errorf("server: fence truncate: %w", err)
	}
	if _, err := fd.WriteAt(wal.AppendFrame(nil, payload), 0); err != nil {
		return fmt.Errorf("server: fence write: %w", err)
	}
	if err := fd.Sync(); err != nil {
		return fmt.Errorf("server: fence sync: %w", err)
	}
	return nil
}

// maxFenceDoc bounds the fence file's one record.
const maxFenceDoc = 4096

// TryAcquire attempts to take the lease. It returns (epoch, true, prev) on
// success — the caller is now leader at that epoch, prev being the lease it
// superseded — or (0, false, cur) with the live lease it observed.
func (f *Fencer) TryAcquire() (uint64, bool, fenceDoc, error) {
	var granted uint64
	var observed fenceDoc
	err := f.withFence(func(cur fenceDoc) (*fenceDoc, error) {
		f.noteEpoch(cur.Epoch)
		now := f.now()
		observed = cur
		live := cur.Holder != "" && now.UnixNano() < cur.Expires
		if live && cur.Holder != f.self {
			return nil, nil
		}
		// Expired, unclaimed, or our own stale lease from a previous
		// incarnation: claim with a strictly higher epoch.
		next := f.floorEpoch(cur.Epoch) + 1
		granted = next
		doc := fenceDoc{Epoch: next, Holder: f.self, Expires: now.Add(f.ttl).UnixNano()}
		return &doc, nil
	})
	if err != nil {
		return 0, false, fenceDoc{}, err
	}
	if granted == 0 {
		return 0, false, observed, nil
	}
	f.mu.Lock()
	f.epoch = granted
	if granted > f.maxSeen {
		f.maxSeen = granted
	}
	f.mu.Unlock()
	return granted, true, observed, nil
}

// Is makes a deposition satisfy errors.Is(err, ErrFenced): both mean "you
// may not write".
func (e *DeposedError) Is(target error) bool { return target == ErrFenced }

// holding runs fn on the fence while it shows this node's lease. A fence
// showing another holder or epoch drops the lease and returns
// *DeposedError; holding no lease is ErrFenced.
func (f *Fencer) holding(fn func(cur fenceDoc) (*fenceDoc, error)) error {
	f.mu.Lock()
	mine := f.epoch
	f.mu.Unlock()
	if mine == 0 {
		return ErrFenced
	}
	return f.withFence(func(cur fenceDoc) (*fenceDoc, error) {
		f.noteEpoch(cur.Epoch)
		if cur.Holder != f.self || cur.Epoch != mine {
			f.dropLease()
			return nil, &DeposedError{Epoch: mine, Seen: cur.Epoch, Holder: cur.Holder}
		}
		return fn(cur)
	})
}

// Renew extends the held lease.
func (f *Fencer) Renew() error {
	return f.holding(func(cur fenceDoc) (*fenceDoc, error) {
		cur.Expires = f.now().Add(f.ttl).UnixNano()
		return &cur, nil
	})
}

// Validate confirms the lease is still ours and live — called before every
// local WAL append. Failure means fenced: no write may proceed.
func (f *Fencer) Validate() error {
	return f.holding(func(cur fenceDoc) (*fenceDoc, error) {
		if f.now().UnixNano() >= cur.Expires {
			// Our own lease expired un-renewed (stalled process, frozen
			// clock). Nobody else claimed yet, but writing now would race
			// whoever does; fence ourselves.
			f.dropLease()
			return nil, ErrFenced
		}
		return nil, nil
	})
}

// Observe reads the current fence without contending.
func (f *Fencer) Observe() (fenceDoc, error) {
	var out fenceDoc
	err := f.withFence(func(cur fenceDoc) (*fenceDoc, error) {
		f.noteEpoch(cur.Epoch)
		out = cur
		return nil, nil
	})
	return out, err
}

// Release voluntarily gives the lease up (graceful shutdown): the expiry
// is zeroed so a standby promotes immediately instead of waiting a TTL.
func (f *Fencer) Release() error {
	err := f.holding(func(cur fenceDoc) (*fenceDoc, error) {
		f.dropLease()
		cur.Expires = 0
		return &cur, nil
	})
	if errors.Is(err, ErrFenced) {
		return nil // not held, or already superseded: nothing to release
	}
	return err
}

// Epoch returns the lease epoch this fencer holds (0 = not leader).
func (f *Fencer) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// MaxSeen returns the highest epoch this fencer has ever observed.
func (f *Fencer) MaxSeen() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.maxSeen
}

func (f *Fencer) noteEpoch(e uint64) {
	f.mu.Lock()
	if e > f.maxSeen {
		f.maxSeen = e
	}
	f.mu.Unlock()
}

func (f *Fencer) floorEpoch(fileEpoch uint64) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.maxSeen > fileEpoch {
		return f.maxSeen
	}
	return fileEpoch
}

func (f *Fencer) dropLease() {
	f.mu.Lock()
	f.epoch = 0
	f.mu.Unlock()
}
