// Package trace collects and serializes fault-propagation data: the
// tainted-memory access log (eip, virtual address, physical address, taint
// mask, current value — the exact fields Chaser logs for post analysis),
// per-rank tainted read/write counts, and the tainted-bytes-over-time
// timeline sampled every 100K instructions (paper Figs. 7-9).
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// Event is one tainted-memory access.
type Event struct {
	Rank     int    `json:"rank"`
	Write    bool   `json:"write"`
	EIP      uint64 `json:"eip"`
	VAddr    uint64 `json:"vaddr"`
	PAddr    uint64 `json:"paddr"`
	Value    uint64 `json:"value"`
	Mask     uint64 `json:"mask"`
	InstrNum uint64 `json:"instr"`
	Size     int    `json:"size"`
	Region   string `json:"region,omitempty"`
}

// TimelinePoint is one tainted-bytes sample.
type TimelinePoint struct {
	Rank         int    `json:"rank"`
	Instrs       uint64 `json:"instrs"`
	TaintedBytes int64  `json:"tainted_bytes"`
}

// DefaultMaxEvents bounds the in-memory event log; accesses beyond the cap
// are counted but not stored.
const DefaultMaxEvents = 1 << 16

// chunkEvents is how many records one log chunk holds. A log grows by whole
// chunks. Only the first chunk starts smaller, at firstChunkEvents, and is
// copied to four times the size as it fills — most injection runs crash
// within a few accesses of the fault and should not pay for 256 records — so
// beyond 256 records appending copies nothing.
const (
	chunkEvents      = 256
	firstChunkEvents = 16
)

// maxRanks bounds the rank of a logged access; the per-rank table is indexed
// by it.
const maxRanks = 1 << 16

// packedEvent is the stored form of an Event. It holds no pointers, so the
// garbage collector neither scans nor traces a log: the region name is
// interned to an index into the owning log's name table, the rank is the
// log's own, and the access width is narrowed.
type packedEvent struct {
	eip, vaddr, paddr, value, mask, instr uint64
	size                                  uint16
	region                                uint8
	write                                 bool
}

// rankLog is one rank's access log and tallies. Every access is counted
// once and the first share of them are stored, so the log holds the first
// min(n, share) records of its n accesses.
type rankLog struct {
	rank   int
	share  int // stored-event cap of this rank
	chunks [][]packedEvent
	// names[i] is the region name interned as i, counts[i] the tally of the
	// rank's accesses to it, stored or not. names[0] is "": accesses outside
	// every region are tallied there, so the counts sum to n.
	names  []string
	counts []RegionCounts

	// n counts the accesses so far, stored or not; cur is the chunk being
	// filled, cut at the share, and at the slot of the next record in it.
	n   int
	cur []packedEvent
	at  int
}

// Collector accumulates propagation data for one run. It is owned by the
// goroutine that runs the run's world — one rank at a time (internal/mpi) —
// and read after the run returns, by that goroutine or by one it hands the
// result to; nothing reads it while the run is live, and it takes no lock.
// The goroutines that can reach a live world leave it alone: the watchdog's
// World.Interrupt touches only the machines' abort pointers, a TaintHub
// flight hands its answer back through the hooks on the world's goroutine,
// and the session pool and campaign workers hand a collector from one
// goroutine to the next, never share it.
type Collector struct {
	maxEvents int
	// ranks is how many ranks share maxEvents (0 = not declared); an int32,
	// so that it and noLog share a word of a struct made for every run.
	ranks int32
	// noLog marks the collector of a run that was told nobody will read its
	// access log: no access reaches it, and what it serializes says so.
	noLog bool
	// logs is the per-rank table, indexed by rank (nil where a rank has
	// logged nothing).
	logs []*rankLog
	// declared counts drops a log read back says its writer incurred.
	declared  uint64
	timeline  []TimelinePoint
	crossRank []CrossRankRecord
	sends     []SendRecord
	outputs   []OutputRecord
}

// RegionCounts tallies tainted accesses per memory region.
type RegionCounts struct {
	Reads  uint64
	Writes uint64
}

// CrossRankRecord notes a tainted MPI message observed crossing ranks.
// Meta marks metadata propagation: the message envelope (count, destination,
// tag) was computed from tainted values even though the payload bytes were
// clean — the corruption still crosses the process boundary through the
// message's effect on the receiver.
//
// EIP/InstrNum/Buf/Len locate the receive in the destination rank's
// execution (the poll side of the TaintHub pair); they key the receive node
// of the provenance graph. Zero values mean the record predates provenance
// support.
type CrossRankRecord struct {
	Src, Dst, Tag int
	Seq           uint64
	TaintedBytes  int
	Meta          bool
	EIP           uint64 `json:",omitempty"`
	InstrNum      uint64 `json:",omitempty"`
	Buf           uint64 `json:",omitempty"`
	Len           int    `json:",omitempty"`
}

// SendRecord is the publish side of a TaintHub pair: a tainted MPI send
// observed on the source rank. Together with the matching CrossRankRecord
// (same Src/Dst/Tag/Seq) it stitches the cross-rank edge of the provenance
// graph.
type SendRecord struct {
	Src, Dst, Tag int
	Seq           uint64
	Buf           uint64
	Len           int
	TaintedBytes  int
	EIP           uint64
	InstrNum      uint64
}

// OutputRecord notes tainted bytes reaching the guest's output file — the
// sink where a propagated fault becomes observable corruption (SDC). Offset
// and Len locate the written range in the output file; Masks are the
// per-byte taint masks of the written bytes; Buf is the guest source buffer
// for out_bytes writes (0 when the source was a register).
type OutputRecord struct {
	Rank     int
	Offset   int
	Len      int
	Buf      uint64 `json:",omitempty"`
	Masks    []uint8
	EIP      uint64
	InstrNum uint64
}

// TaintedBytes counts the non-zero per-byte masks of the written range.
func (o *OutputRecord) TaintedBytes() int {
	n := 0
	for _, m := range o.Masks {
		if m != 0 {
			n++
		}
	}
	return n
}

// NewCollector creates a collector with the default event cap.
func NewCollector() *Collector { return NewCollectorCap(DefaultMaxEvents) }

// NewCollectorCap creates a collector storing at most maxEvents events.
func NewCollectorCap(maxEvents int) *Collector {
	return &Collector{maxEvents: maxEvents}
}

// NewCollectorNoAccessLog creates the collector of a run that keeps no access
// log. Nothing calls AddEvent on it: the run's tainted accesses are counted
// by the machines alone (vm.Counters), so Stored, Dropped, the totals and
// Regions are all zero, and WriteTo, Read and BuildGraph carry an explicit
// "access log not kept" marker so that nobody mistakes the empty log for a
// run without tainted accesses. Samples and cross-rank, send and output
// records are collected as ever.
func NewCollectorNoAccessLog() *Collector {
	return &Collector{noLog: true}
}

// Reset empties the collector for another run, one that keeps its access log
// unless noLog: it then holds what NewCollector returns, or under noLog what
// NewCollectorNoAccessLog does, whichever constructor made it, and keeps the
// storage of its cross-rank, send and output records. Nothing may read or add
// to it meanwhile; what its accessors returned before are copies, and stay as
// they were.
func (c *Collector) Reset(noLog bool) {
	clear(c.outputs) // their masks
	maxEvents := DefaultMaxEvents
	if noLog {
		maxEvents = 0
	}
	*c = Collector{
		maxEvents: maxEvents,
		noLog:     noLog,
		crossRank: c.crossRank[:0],
		sends:     c.sends[:0],
		outputs:   c.outputs[:0],
	}
}

// AccessLogKept reports whether the collector stores the accesses of its run.
func (c *Collector) AccessLogKept() bool { return !c.noLog }

// ShareAmong declares how many ranks log into the collector. Each rank then
// stores at most its share of the cap, so which events survive a truncated
// run depends on the run alone and not on how the ranks interleaved. It must
// be called before the first event of the run; a collector never told shares
// nothing and lets every rank fill the cap.
func (c *Collector) ShareAmong(ranks int) { c.ranks = int32(ranks) }

// log returns rank's log, creating it at the rank's first access.
func (c *Collector) log(rank int) (*rankLog, error) {
	if uint(rank) < uint(len(c.logs)) && c.logs[rank] != nil {
		return c.logs[rank], nil
	}
	if c.noLog {
		return nil, errors.New("trace: access logged to a collector that keeps no access log")
	}
	if rank < 0 || rank >= maxRanks {
		return nil, fmt.Errorf("trace: rank %d out of range [0,%d)", rank, maxRanks)
	}
	if rank >= len(c.logs) {
		c.logs = append(c.logs, make([]*rankLog, rank+1-len(c.logs))...)
	}
	// Room for "" and a guest's three regions, so interning seldom regrows.
	l := &rankLog{rank: rank, share: c.maxEvents, names: append(make([]string, 0, 4), ""),
		counts: make([]RegionCounts, 1, 4)}
	if c.ranks > 1 {
		l.share = c.maxEvents / int(c.ranks)
	}
	c.logs[rank] = l
	return l, nil
}

// AddEvent records one tainted-memory access. The event is read during the
// call only; the caller may reuse it. A rank or width outside [0,65536) and
// more region names on one rank than maxRegions are bugs in the caller and
// panic; Read reports them as errors.
func (c *Collector) AddEvent(ev *Event) {
	if err := c.addEvent(ev); err != nil {
		panic(err)
	}
}

func (c *Collector) addEvent(ev *Event) error {
	l, err := c.log(ev.Rank)
	if err != nil {
		return err
	}
	return l.add(ev)
}

// Appender is a rank's end of an access log, as the callback a traced run
// hands the rank's machine. Add stores and counts an access of the rank, as
// AddEvent does.
//
// The appender looks the rank's log up at the rank's first access and holds
// on to it, where AddEvent looks it up for every event; it allocates nothing
// in the log before, so a rank that never adds leaves no trace in it. ev.Rank
// is not read. An access inside the current chunk, to a region the rank has
// accessed before, is the whole of Add's fast path: a few compares, the
// record and the tally — no call.
//
// An Appender can be moved from one collector to another: a rank that logs
// into a new collector every run keeps one Appender, and its callback,
// across runs. The zero Appender is attached to nothing.
type Appender struct {
	// Add is bound by Attach, once.
	Add func(ev *Event)
	a   appender
}

// Attach points the appender at rank's log in c, which it looks up at the
// rank's first access. Nothing may add through it meanwhile.
func (x *Appender) Attach(c *Collector, rank int) {
	x.a = appender{c: c, rank: rank}
	if x.Add != nil {
		return
	}
	a := &x.a
	x.Add = func(ev *Event) {
		// The fast path: the region found by the storage its name came in,
		// then put, spelled out — a call in the body of a closure stays a
		// call.
		if l := a.l; l != nil && l.at < len(l.cur) && uint(ev.Size) <= 0xffff {
			name := unsafe.StringData(ev.Region)
			for i := 1; i < len(l.names); i++ {
				if unsafe.StringData(l.names[i]) != name || len(l.names[i]) != len(ev.Region) {
					continue
				}
				p := &l.cur[l.at]
				p.eip, p.vaddr, p.paddr, p.value, p.mask, p.instr = ev.EIP, ev.VAddr, ev.PAddr, ev.Value, ev.Mask, ev.InstrNum
				p.size, p.region, p.write = uint16(ev.Size), uint8(i), ev.Write
				l.at++
				l.n++
				if ev.Write {
					l.counts[i].Writes++
				} else {
					l.counts[i].Reads++
				}
				return
			}
		}
		a.add(ev)
	}
}

// appender is the state of an Appender's callbacks: the rank, and its log
// once it has one.
type appender struct {
	c    *Collector
	rank int
	l    *rankLog
}

// add is the add callback off its fast path.
func (a *appender) add(ev *Event) {
	if a.l == nil {
		l, err := a.c.log(a.rank)
		if err != nil {
			panic(err)
		}
		a.l = l
	}
	if err := a.l.add(ev); err != nil {
		panic(err)
	}
}

// put stores an access to the region interned as region in the next slot of
// the current chunk, and counts it.
func (l *rankLog) put(ev *Event, region uint8) {
	p := &l.cur[l.at]
	p.eip, p.vaddr, p.paddr, p.value, p.mask, p.instr = ev.EIP, ev.VAddr, ev.PAddr, ev.Value, ev.Mask, ev.InstrNum
	p.size, p.region, p.write = uint16(ev.Size), region, ev.Write
	l.at++
	l.count(ev.Write, region)
}

// count tallies one access to the region interned as region.
func (l *rankLog) count(write bool, region uint8) {
	l.n++
	if write {
		l.counts[region].Writes++
	} else {
		l.counts[region].Reads++
	}
}

// add stores and counts one access of the log's rank, whatever its region
// and wherever the log stands: it checks the width, looks the region up,
// makes room at the end of a chunk and counts without storing past the
// share.
func (l *rankLog) add(ev *Event) error {
	if ev.Size < 0 || ev.Size > 0xffff {
		return fmt.Errorf("trace: access width %d out of range", ev.Size)
	}
	region := l.region(ev.Region)
	if region < 0 {
		return fmt.Errorf("trace: rank %d logs more than %d distinct regions", l.rank, maxRegions)
	}
	if l.at == len(l.cur) {
		if l.n >= l.share {
			// Past the share the access is counted, not stored.
			l.count(ev.Write, uint8(region))
			return nil
		}
		l.grow()
	}
	l.put(ev, uint8(region))
	return nil
}

// grow makes room for the next record: a new chunk, or the first chunk, full
// below chunkEvents, copied to one four times its size.
func (l *rankLog) grow() {
	if l.n%chunkEvents == 0 {
		size := chunkEvents
		if l.n == 0 {
			size = firstChunkEvents
		}
		l.chunks = append(l.chunks, make([]packedEvent, size))
	} else {
		grown := make([]packedEvent, min(4*l.n, chunkEvents))
		copy(grown, l.chunks[0])
		l.chunks[0] = grown
	}
	start := (len(l.chunks) - 1) * chunkEvents
	chunk := l.chunks[len(l.chunks)-1]
	l.cur, l.at = chunk[:min(len(chunk), l.share-start)], l.n-start
}

// maxRegions is how many distinct region names, "" among them, one rank's
// log can intern: a packed record has a byte for the index.
const maxRegions = 256

// region returns the index of name in the log's table, as intern does, and
// finds a name it has seen in the same storage without reading it, as the
// appender's fast path does. A machine names the region of an access with
// the string its memory's region table holds, one per region for the whole
// run, read off the page the access touched, so a name is compared byte by
// byte when a region is first accessed and recognized by its address from
// then on; a name that arrives in storage of its own (Read's events, a
// test's) misses here and is interned by content, as before.
func (l *rankLog) region(name string) int {
	if name == "" {
		return 0
	}
	at := unsafe.StringData(name)
	for i, n := range l.names {
		if len(n) == len(name) && unsafe.StringData(n) == at {
			return i
		}
	}
	return l.intern(name)
}

// intern returns the index of name in the log's table, adding it if there is
// room and returning -1 if not. Guests have three regions, so the scan beats
// a map.
func (l *rankLog) intern(name string) int {
	for i, n := range l.names {
		if n == name {
			return i
		}
	}
	if len(l.names) == maxRegions {
		return -1
	}
	l.names = append(l.names, name)
	l.counts = append(l.counts, RegionCounts{})
	return len(l.names) - 1
}

// stored returns how many records the log holds.
func (l *rankLog) stored() int { return min(l.n, l.share) }

// dropped returns how many accesses the cap kept out of the log.
func (l *rankLog) dropped() uint64 { return uint64(l.n - l.stored()) }

// record returns the i-th stored record.
func (l *rankLog) record(i int) *packedEvent { return &l.chunks[i/chunkEvents][i%chunkEvents] }

// event unpacks the i-th stored record.
func (l *rankLog) event(i int) Event {
	p := l.record(i)
	return Event{
		Rank: l.rank, Write: p.write, EIP: p.eip, VAddr: p.vaddr, PAddr: p.paddr,
		Value: p.value, Mask: p.mask, InstrNum: p.instr, Size: int(p.size),
		Region: l.names[p.region],
	}
}

// logged returns the logs of the ranks that logged, in rank order.
func (c *Collector) logged() []*rankLog {
	var out []*rankLog
	for _, l := range c.logs {
		if l != nil {
			out = append(out, l)
		}
	}
	return out
}

// AddSample records one tainted-bytes timeline point.
func (c *Collector) AddSample(p TimelinePoint) {
	c.timeline = append(c.timeline, p)
}

// SeedTimeline puts the samples of the execution a run resumes — a fork
// point's prefix — in front of the timeline, in one step. The collector
// shares ps rather than copying it, and never writes to it: the run's own
// samples go to storage of their own. ps must not change afterwards.
func (c *Collector) SeedTimeline(ps []TimelinePoint) {
	c.timeline = append(ps[:len(ps):len(ps)], c.timeline...)
}

// AddCrossRank records a tainted message crossing rank boundaries.
func (c *Collector) AddCrossRank(r CrossRankRecord) {
	c.crossRank = append(c.crossRank, r)
}

// AddSend records the publish side of a tainted MPI send.
func (c *Collector) AddSend(r SendRecord) {
	c.sends = append(c.sends, r)
}

// AddOutput records tainted bytes written to the guest output file.
func (c *Collector) AddOutput(r OutputRecord) {
	c.outputs = append(c.outputs, r)
}

// Events returns a copy of the stored events: rank by rank, each rank's in
// the order it executed them.
func (c *Collector) Events() []Event {
	total := c.Stored()
	if total == 0 {
		return nil
	}
	out := make([]Event, 0, total)
	for _, l := range c.logged() {
		for j := 0; j < l.stored(); j++ {
			out = append(out, l.event(j))
		}
	}
	return out
}

// Stored returns how many events the log holds, without copying it.
func (c *Collector) Stored() int {
	n := 0
	for _, l := range c.logged() {
		n += l.stored()
	}
	return n
}

// Dropped returns how many events exceeded the cap.
func (c *Collector) Dropped() uint64 {
	n := c.declared
	for _, l := range c.logged() {
		n += l.dropped()
	}
	return n
}

// Timeline returns a copy of the tainted-bytes samples.
func (c *Collector) Timeline() []TimelinePoint {
	return append([]TimelinePoint(nil), c.timeline...)
}

// CrossRank returns a copy of the cross-rank records.
func (c *Collector) CrossRank() []CrossRankRecord {
	return append([]CrossRankRecord(nil), c.crossRank...)
}

// Sends returns a copy of the tainted-send records.
func (c *Collector) Sends() []SendRecord {
	return append([]SendRecord(nil), c.sends...)
}

// Outputs returns a copy of the tainted-output records.
func (c *Collector) Outputs() []OutputRecord {
	return append([]OutputRecord(nil), c.outputs...)
}

// Regions returns a copy of the per-region tainted access counts: where in
// guest memory (heap / stack / data) the fault footprint lives.
func (c *Collector) Regions() map[string]RegionCounts {
	out := make(map[string]RegionCounts)
	for _, l := range c.logged() {
		for i, name := range l.names[1:] {
			rc := out[name]
			rc.Reads += l.counts[i+1].Reads
			rc.Writes += l.counts[i+1].Writes
			out[name] = rc
		}
	}
	return out
}

// tallies returns the tainted read and write counts of the ranks in table.
func tallies(table []*rankLog) (reads, writes uint64) {
	for _, l := range table {
		if l != nil {
			for _, rc := range l.counts {
				reads += rc.Reads
				writes += rc.Writes
			}
		}
	}
	return reads, writes
}

// one returns the part of the table holding rank alone.
func (c *Collector) one(rank int) []*rankLog {
	if rank >= 0 && rank < len(c.logs) {
		return c.logs[rank : rank+1]
	}
	return nil
}

// Reads returns the total tainted-read count of one rank.
func (c *Collector) Reads(rank int) uint64 {
	reads, _ := tallies(c.one(rank))
	return reads
}

// Writes returns the total tainted-write count of one rank.
func (c *Collector) Writes(rank int) uint64 {
	_, writes := tallies(c.one(rank))
	return writes
}

// TotalReads sums tainted reads across all ranks.
func (c *Collector) TotalReads() uint64 {
	reads, _ := tallies(c.logs)
	return reads
}

// TotalWrites sums tainted writes across all ranks.
func (c *Collector) TotalWrites() uint64 {
	_, writes := tallies(c.logs)
	return writes
}

// Propagated reports whether any taint crossed a rank boundary.
func (c *Collector) Propagated() bool {
	return len(c.crossRank) > 0
}

// MetaRecord is the log header: how many events were stored and how many
// exceeded the in-memory cap. Without it, a truncated log is
// indistinguishable from a complete one.
type MetaRecord struct {
	Stored  int    `json:"stored"`
	Dropped uint64 `json:"dropped"`
	// NoAccessLog marks the log of a run that kept no access log (see
	// NewCollectorNoAccessLog): Stored is zero because nothing was stored,
	// not because nothing was tainted.
	NoAccessLog bool `json:"access_log_not_kept,omitempty"`
}

// TruncationRecord is the explicit truncation marker written at the cap
// boundary of the event stream: everything before it is the complete prefix,
// Dropped events past it were counted but not stored. Readers that only
// stream events (and never see the header again) still learn the log is
// incomplete the moment they cross the boundary.
type TruncationRecord struct {
	Dropped uint64 `json:"dropped"`
}

// record is the JSON-lines on-disk format.
type record struct {
	Kind   string            `json:"kind"` // "meta", "event", "trunc", "sample", "cross", "send", "output"
	Meta   *MetaRecord       `json:"meta,omitempty"`
	Event  *Event            `json:"event,omitempty"`
	Trunc  *TruncationRecord `json:"trunc,omitempty"`
	Sample *TimelinePoint    `json:"sample,omitempty"`
	Cross  *CrossRankRecord  `json:"cross,omitempty"`
	Send   *SendRecord       `json:"send,omitempty"`
	Output *OutputRecord     `json:"output,omitempty"`
}

// countingWriter counts the bytes its writer accepted.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteTo serializes the collected data as JSON lines, starting with a meta
// record carrying the stored/dropped event counts — and, from a collector that
// kept no access log, the mark that says so. Events follow rank by
// rank. When events were dropped at the in-memory cap, an explicit
// truncation marker follows the last stored event. It returns the number of
// bytes written to w.
func (c *Collector) WriteTo(w io.Writer) (int64, error) {
	logs := c.logged()
	stored, dropped := c.Stored(), c.Dropped()

	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	enc := json.NewEncoder(bw)
	write := func(r record) error { return enc.Encode(r) }
	if err := write(record{Kind: "meta", Meta: &MetaRecord{Stored: stored, Dropped: dropped, NoAccessLog: c.noLog}}); err != nil {
		return cw.n, err
	}
	for _, l := range logs {
		for j := 0; j < l.stored(); j++ {
			ev := l.event(j)
			if err := write(record{Kind: "event", Event: &ev}); err != nil {
				return cw.n, err
			}
		}
	}
	if dropped > 0 {
		if err := write(record{Kind: "trunc", Trunc: &TruncationRecord{Dropped: dropped}}); err != nil {
			return cw.n, err
		}
	}
	for i := range c.timeline {
		if err := write(record{Kind: "sample", Sample: &c.timeline[i]}); err != nil {
			return cw.n, err
		}
	}
	for i := range c.crossRank {
		if err := write(record{Kind: "cross", Cross: &c.crossRank[i]}); err != nil {
			return cw.n, err
		}
	}
	for i := range c.sends {
		if err := write(record{Kind: "send", Send: &c.sends[i]}); err != nil {
			return cw.n, err
		}
	}
	for i := range c.outputs {
		if err := write(record{Kind: "output", Output: &c.outputs[i]}); err != nil {
			return cw.n, err
		}
	}
	err := bw.Flush()
	return cw.n, err
}

// Read parses a JSON-lines propagation log back into a collector. The
// writer's declared drop count (meta header and truncation marker) is added
// to any drops the reading collector incurs itself, so Dropped() round-trips
// even when the reader's cap is smaller than the writer's.
func Read(r io.Reader) (*Collector, error) {
	c := NewCollector()
	var declared uint64
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var rec record
		err := dec.Decode(&rec)
		if err == io.EOF {
			c.declared += declared
			return c, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: parse: %w", err)
		}
		switch rec.Kind {
		case "meta":
			if rec.Meta != nil && rec.Meta.Dropped > declared {
				declared = rec.Meta.Dropped
			}
			if rec.Meta != nil && rec.Meta.NoAccessLog {
				c.noLog = true
			}
		case "trunc":
			if rec.Trunc != nil && rec.Trunc.Dropped > declared {
				declared = rec.Trunc.Dropped
			}
		case "event":
			if rec.Event != nil {
				if err := c.addEvent(rec.Event); err != nil {
					return nil, err
				}
			}
		case "sample":
			if rec.Sample != nil {
				c.AddSample(*rec.Sample)
			}
		case "cross":
			if rec.Cross != nil {
				c.AddCrossRank(*rec.Cross)
			}
		case "send":
			if rec.Send != nil {
				c.AddSend(*rec.Send)
			}
		case "output":
			if rec.Output != nil {
				c.AddOutput(*rec.Output)
			}
		default:
			return nil, fmt.Errorf("trace: unknown record kind %q", rec.Kind)
		}
	}
}
