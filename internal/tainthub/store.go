package tainthub

import (
	"time"

	"chaser/internal/obs"
)

// store is the hub state machine shared by Local (in-memory) and Durable
// (write-ahead logged): the stored taint entries, grouped by namespace so a
// namespace's usage is its group's size and retiring it drops the group.
// Every operation is idempotent — a publish overwrites, a poll reads, a
// retire of an empty range drops nothing — so a repeated RPC needs no memory
// of the first. Methods require external locking; the check/apply split lets
// Durable interpose its WAL append between deciding an operation is valid and
// mutating state.
type store struct {
	lim     Limits
	ns      map[int]*namespace
	pending int // entries across all namespaces
	stats   Stats
	// lastSweep throttles opportunistic TTL sweeps to one per TTL/4.
	lastSweep int64
	o         *hubObs
}

// namespace is one run's entries and the mask bytes they hold.
type namespace struct {
	entries map[entryKey]entry
	bytes   int64
}

type entry struct {
	masks []uint8
	stamp int64 // unix nanos of the publish, for TTL eviction
}

// hubObs bundles the state machine's instruments; nil disables them.
type hubObs struct {
	evicted  *obs.Counter
	retired  *obs.Counter
	replayed *obs.Counter
}

func newHubObs(reg *obs.Registry) *hubObs {
	if reg == nil {
		return nil
	}
	return &hubObs{
		evicted:  reg.Counter("tainthub_evicted_total"),
		retired:  reg.Counter("tainthub_retired_total"),
		replayed: reg.Counter("tainthub_replayed_total"),
	}
}

func newStore(lim Limits, o *hubObs) store {
	return store{lim: lim.withDefaults(), ns: make(map[int]*namespace), o: o}
}

func (s *store) reset() {
	s.ns = make(map[int]*namespace)
	s.pending = 0
	s.stats = Stats{}
}

// checkPublish validates a publish against the memory limits without
// mutating anything. An overwrite is charged what it adds, so repeating a
// publish that was accepted is never refused.
func (s *store) checkPublish(k Key, seq uint64, masks []uint8) error {
	if s.lim.MaxPayload > 0 && len(masks) > s.lim.MaxPayload {
		return &PayloadError{Size: len(masks), Limit: s.lim.MaxPayload}
	}
	n := s.ns[k.NS]
	if n == nil || (s.lim.MaxPending <= 0 && s.lim.MaxPendingBytes <= 0) {
		return nil
	}
	old, overwrite := n.entries[entryKey{k, seq}]
	if s.lim.MaxPending > 0 && !overwrite && len(n.entries) >= s.lim.MaxPending {
		return &BusyError{NS: k.NS, RetryAfter: s.lim.RetryAfter}
	}
	if s.lim.MaxPendingBytes > 0 && n.bytes-int64(len(old.masks))+int64(len(masks)) > s.lim.MaxPendingBytes {
		return &BusyError{NS: k.NS, RetryAfter: s.lim.RetryAfter}
	}
	return nil
}

// put stores an entry, replacing any earlier one of the same (key, seq), and
// reports whether the entry is new.
func (s *store) put(k Key, seq uint64, masks []uint8, stamp int64) bool {
	n := s.ns[k.NS]
	if n == nil {
		n = &namespace{entries: make(map[entryKey]entry)}
		s.ns[k.NS] = n
	}
	ek := entryKey{k, seq}
	old, overwrite := n.entries[ek]
	n.entries[ek] = entry{masks: append([]uint8(nil), masks...), stamp: stamp}
	n.bytes += int64(len(masks)) - int64(len(old.masks))
	if !overwrite {
		s.pending++
	}
	return !overwrite
}

// applyPublish unconditionally stores an entry (callers ran checkPublish,
// or are replaying a WAL whose records passed it when first written).
// Published counts entries, not calls: a repeated publish changes bytes only.
func (s *store) applyPublish(k Key, seq uint64, masks []uint8, stamp int64) {
	if s.put(k, seq, masks, stamp) {
		s.stats.Published++
	}
}

// poll reads an entry and leaves it stored.
func (s *store) poll(k Key, seq uint64) ([]uint8, bool) {
	s.stats.Polls++
	n := s.ns[k.NS]
	if n == nil {
		return nil, false
	}
	e, ok := n.entries[entryKey{k, seq}]
	if !ok {
		return nil, false
	}
	s.stats.Hits++
	return e.masks, true
}

// applyRetire drops every entry whose namespace is in [lo, hi).
func (s *store) applyRetire(lo, hi int) {
	retired := 0
	for id, n := range s.ns {
		if id >= lo && id < hi {
			retired += len(n.entries)
			delete(s.ns, id)
		}
	}
	s.pending -= retired
	if s.o != nil {
		s.o.retired.Add(uint64(retired))
	}
}

// clock returns the time to stamp an entry with and sweep by: now, on a hub
// with a TTL, and 0 on one without, whose stamps nothing reads. The limits
// never change, so it needs no lock.
func (s *store) clock() int64 {
	if s.lim.TTL <= 0 {
		return 0
	}
	return time.Now().UnixNano()
}

// maybeSweep runs a TTL sweep at most once per TTL/4 of traffic.
func (s *store) maybeSweep(now int64) {
	if s.lim.TTL <= 0 {
		return
	}
	if now-s.lastSweep < int64(s.lim.TTL)/4 {
		return
	}
	s.sweep(now)
}

// sweep evicts entries older than the TTL.
func (s *store) sweep(now int64) int {
	s.lastSweep = now
	if s.lim.TTL <= 0 {
		return 0
	}
	cutoff := now - int64(s.lim.TTL)
	evicted := 0
	for id, n := range s.ns {
		for ek, e := range n.entries {
			if e.stamp < cutoff {
				delete(n.entries, ek)
				n.bytes -= int64(len(e.masks))
				evicted++
			}
		}
		if len(n.entries) == 0 {
			delete(s.ns, id)
		}
	}
	if evicted > 0 {
		s.pending -= evicted
		s.stats.Evicted += uint64(evicted)
		if s.o != nil {
			s.o.evicted.Add(uint64(evicted))
		}
	}
	return evicted
}

func (s *store) snapshotStats() Stats {
	st := s.stats
	st.Pending = s.pending
	return st
}
