package tainthub

import "chaser/internal/obs"

// store is the hub state machine shared by Local (in-memory) and Durable
// (write-ahead logged): pending taint entries, per-namespace usage
// accounting, and the bounded per-client reply cache that makes retried
// destructive RPCs idempotent. Methods require external locking; the
// check/apply split lets Durable interpose its WAL append between deciding
// an operation is valid and mutating state.
type store struct {
	lim     Limits
	entries map[entryKey]entry
	ns      map[int]*nsUsage
	clients map[uint64]*clientCache
	stats   Stats
	// lastSweep throttles opportunistic TTL sweeps to one per TTL/4.
	lastSweep int64
	o         *hubObs
}

type entry struct {
	masks []uint8
	stamp int64 // unix nanos of the publish, for TTL eviction
}

type nsUsage struct {
	count int
	bytes int64
}

// cachedReply is a remembered RPC result: the zero value is a publish ack,
// found=true carries a consumed poll's masks.
type cachedReply struct {
	masks []uint8
	found bool
}

// clientCache is one client's remembered replies: two FIFOs, oldest first,
// each bounded by Limits.ReplyCache and searched newest-first (a retry
// re-sends a recent request). A publish ack carries nothing, so remembering
// one costs its 8-byte request number; a consumed poll keeps its masks. They
// are slices, not a map with an order list: a hub serving campaigns tracks
// one cache per injection run, thousands at a time, and a run that spreads
// taint remembers a hundred of each.
type clientCache struct {
	lastUse int64
	acks    []uint64
	polls   []polledReply
}

type polledReply struct {
	seq   uint64
	masks []uint8
}

// find returns seq's remembered reply.
func (c *clientCache) find(seq uint64) (cachedReply, bool) {
	for i := len(c.acks) - 1; i >= 0; i-- {
		if c.acks[i] == seq {
			return cachedReply{}, true
		}
	}
	for i := len(c.polls) - 1; i >= 0; i-- {
		if c.polls[i].seq == seq {
			return cachedReply{masks: c.polls[i].masks, found: true}, true
		}
	}
	return cachedReply{}, false
}

// dropOldest trims a FIFO to limit entries by shifting down, not by
// re-slicing: a dropped reply's masks must not stay reachable through the
// backing array.
func dropOldest[T any](fifo []T, limit int) []T {
	if over := len(fifo) - limit; over > 0 {
		n := copy(fifo, fifo[over:])
		clear(fifo[n:])
		fifo = fifo[:n]
	}
	return fifo
}

// hubObs bundles the state machine's instruments; nil disables them.
type hubObs struct {
	evicted  *obs.Counter
	dedup    *obs.Counter
	replayed *obs.Counter
}

func newHubObs(reg *obs.Registry) *hubObs {
	if reg == nil {
		return nil
	}
	return &hubObs{
		evicted:  reg.Counter("tainthub_evicted_total"),
		dedup:    reg.Counter("tainthub_dedup_hits_total"),
		replayed: reg.Counter("tainthub_replayed_total"),
	}
}

func newStore(lim Limits, o *hubObs) store {
	return store{
		lim:     lim.withDefaults(),
		entries: make(map[entryKey]entry),
		ns:      make(map[int]*nsUsage),
		clients: make(map[uint64]*clientCache),
		o:       o,
	}
}

func (s *store) reset() {
	s.entries = make(map[entryKey]entry)
	s.ns = make(map[int]*nsUsage)
	s.clients = make(map[uint64]*clientCache)
	s.stats = Stats{}
}

// dedup reports whether id's operation already executed and returns the
// remembered reply. A zero client disables replay protection.
func (s *store) dedup(id ReqID, now int64) (cachedReply, bool) {
	if id.Client == 0 {
		return cachedReply{}, false
	}
	c := s.clients[id.Client]
	if c == nil {
		return cachedReply{}, false
	}
	c.lastUse = now
	rep, ok := c.find(id.Seq)
	if ok {
		s.stats.DedupHits++
		if s.o != nil {
			s.o.dedup.Inc()
		}
	}
	return rep, ok
}

// remember caches id's reply for future replays, bounded per client and
// across clients.
func (s *store) remember(id ReqID, rep cachedReply, now int64) {
	if id.Client == 0 {
		return
	}
	c := s.clients[id.Client]
	if c == nil {
		c = &clientCache{}
		s.clients[id.Client] = c
		if len(s.clients) > s.lim.MaxClients {
			s.evictOldestClient()
		}
	}
	c.lastUse = now
	if _, ok := c.find(id.Seq); ok {
		return // a request ID names one operation: its reply cannot change
	}
	if rep.found {
		c.polls = dropOldest(append(c.polls, polledReply{seq: id.Seq, masks: rep.masks}), s.lim.ReplyCache)
	} else {
		c.acks = dropOldest(append(c.acks, id.Seq), s.lim.ReplyCache)
	}
}

// evictOldestClient drops the least recently active reply cache.
func (s *store) evictOldestClient() {
	var victim uint64
	var oldest int64
	first := true
	for id, c := range s.clients {
		if first || c.lastUse < oldest {
			victim, oldest, first = id, c.lastUse, false
		}
	}
	if !first {
		delete(s.clients, victim)
		s.stats.Evicted++
		if s.o != nil {
			s.o.evicted.Inc()
		}
	}
}

// checkPublish validates a publish against the memory limits without
// mutating anything.
func (s *store) checkPublish(k Key, masks []uint8) error {
	if s.lim.MaxPayload > 0 && len(masks) > s.lim.MaxPayload {
		return &PayloadError{Size: len(masks), Limit: s.lim.MaxPayload}
	}
	if s.lim.MaxPending <= 0 && s.lim.MaxPendingBytes <= 0 {
		return nil
	}
	u := s.ns[k.NS]
	if u == nil {
		return nil
	}
	if s.lim.MaxPending > 0 && u.count >= s.lim.MaxPending {
		return &BusyError{NS: k.NS, RetryAfter: s.lim.RetryAfter}
	}
	if s.lim.MaxPendingBytes > 0 && u.bytes+int64(len(masks)) > s.lim.MaxPendingBytes {
		return &BusyError{NS: k.NS, RetryAfter: s.lim.RetryAfter}
	}
	return nil
}

// applyPublish unconditionally stores an entry (callers ran checkPublish,
// or are replaying a WAL whose records passed it when first written).
func (s *store) applyPublish(k Key, seq uint64, masks []uint8, stamp int64) {
	cp := make([]uint8, len(masks))
	copy(cp, masks)
	ek := entryKey{k, seq}
	u := s.ns[k.NS]
	if u == nil {
		u = &nsUsage{}
		s.ns[k.NS] = u
	}
	if old, ok := s.entries[ek]; ok {
		u.count--
		u.bytes -= int64(len(old.masks))
	}
	s.entries[ek] = entry{masks: cp, stamp: stamp}
	u.count++
	u.bytes += int64(len(cp))
	s.stats.Published++
}

// applyConsume removes and returns an entry; it counts the poll either way
// (misses are not WAL-logged, so replayed polls are always hits).
func (s *store) applyConsume(k Key, seq uint64) ([]uint8, bool) {
	s.stats.Polls++
	ek := entryKey{k, seq}
	e, ok := s.entries[ek]
	if !ok {
		return nil, false
	}
	s.removeEntry(ek, e)
	s.stats.Hits++
	return e.masks, true
}

func (s *store) removeEntry(ek entryKey, e entry) {
	delete(s.entries, ek)
	if u := s.ns[ek.k.NS]; u != nil {
		u.count--
		u.bytes -= int64(len(e.masks))
		if u.count <= 0 && u.bytes <= 0 {
			delete(s.ns, ek.k.NS)
		}
	}
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

// sweep evicts entries and idle reply caches older than the TTL.
func (s *store) sweep(now int64) int {
	s.lastSweep = now
	if s.lim.TTL <= 0 {
		return 0
	}
	cutoff := now - int64(s.lim.TTL)
	evicted := 0
	for ek, e := range s.entries {
		if e.stamp < cutoff {
			s.removeEntry(ek, e)
			evicted++
		}
	}
	for id, c := range s.clients {
		if c.lastUse < cutoff {
			delete(s.clients, id)
			evicted++
		}
	}
	if evicted > 0 {
		s.stats.Evicted += uint64(evicted)
		if s.o != nil {
			s.o.evicted.Add(uint64(evicted))
		}
	}
	return evicted
}

func (s *store) snapshotStats() Stats {
	st := s.stats
	st.Pending = len(s.entries)
	return st
}

// export serializes the full state for a snapshot covering WAL generation
// gen.
func (s *store) export(gen uint64) *snapshotRec {
	snap := &snapshotRec{Gen: gen, Stats: s.stats}
	snap.Entries = make([]snapEntryRec, 0, len(s.entries))
	for ek, e := range s.entries {
		snap.Entries = append(snap.Entries, snapEntryRec{
			K: ek.k, Seq: ek.seq, Masks: e.masks, Stamp: e.stamp,
		})
	}
	snap.Clients = make([]snapClientRec, 0, len(s.clients))
	for id, c := range s.clients {
		cr := snapClientRec{ID: id, LastUse: c.lastUse}
		for _, seq := range c.acks {
			cr.Reqs = append(cr.Reqs, snapReplyRec{Req: seq})
		}
		for _, rep := range c.polls {
			cr.Reqs = append(cr.Reqs, snapReplyRec{Req: rep.seq, Masks: rep.masks, Found: true})
		}
		snap.Clients = append(snap.Clients, cr)
	}
	return snap
}

// restore replaces the state with a decoded snapshot.
func (s *store) restore(snap *snapshotRec) {
	s.reset()
	s.stats = snap.Stats
	for _, er := range snap.Entries {
		s.applyPublish(er.K, er.Seq, er.Masks, er.Stamp)
	}
	// applyPublish counted the restored entries again; the snapshot's own
	// counters already include them.
	s.stats.Published = snap.Stats.Published
	for _, cr := range snap.Clients {
		c := &clientCache{lastUse: cr.LastUse}
		for _, rr := range cr.Reqs {
			if rr.Found {
				c.polls = append(c.polls, polledReply{seq: rr.Req, masks: rr.Masks})
			} else {
				c.acks = append(c.acks, rr.Req)
			}
		}
		s.clients[cr.ID] = c
	}
}
