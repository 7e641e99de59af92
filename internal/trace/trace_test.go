package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCollectorCounts(t *testing.T) {
	c := NewCollector()
	c.AddEvent(&Event{Rank: 0, Write: false, EIP: 1, Mask: 1})
	c.AddEvent(&Event{Rank: 0, Write: true, EIP: 2, Mask: 2})
	c.AddEvent(&Event{Rank: 1, Write: false, EIP: 3, Mask: 4})
	if c.Reads(0) != 1 || c.Writes(0) != 1 || c.Reads(1) != 1 || c.Writes(1) != 0 {
		t.Errorf("per-rank counts wrong: r0=%d/%d r1=%d/%d",
			c.Reads(0), c.Writes(0), c.Reads(1), c.Writes(1))
	}
	if c.TotalReads() != 2 || c.TotalWrites() != 1 {
		t.Errorf("totals = %d/%d", c.TotalReads(), c.TotalWrites())
	}
	if len(c.Events()) != 3 {
		t.Errorf("events = %d", len(c.Events()))
	}
}

func TestCollectorCap(t *testing.T) {
	c := NewCollectorCap(2)
	for i := 0; i < 5; i++ {
		c.AddEvent(&Event{Rank: 0, EIP: uint64(i)})
	}
	if len(c.Events()) != 2 {
		t.Errorf("stored = %d, want 2", len(c.Events()))
	}
	if c.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", c.Dropped())
	}
	// Counts still reflect every event.
	if c.TotalReads() != 5 {
		t.Errorf("total reads = %d, want 5", c.TotalReads())
	}
}

func TestCollectorTimelineAndCrossRank(t *testing.T) {
	c := NewCollector()
	c.AddSample(TimelinePoint{Rank: 0, Instrs: 100000, TaintedBytes: 16})
	c.AddSample(TimelinePoint{Rank: 0, Instrs: 200000, TaintedBytes: 0})
	if len(c.Timeline()) != 2 {
		t.Error("timeline size wrong")
	}
	if c.Propagated() {
		t.Error("propagated without cross-rank records")
	}
	c.AddCrossRank(CrossRankRecord{Src: 0, Dst: 3, Tag: 7, Seq: 2, TaintedBytes: 8})
	if !c.Propagated() {
		t.Error("not propagated after cross-rank record")
	}
	if got := c.CrossRank(); len(got) != 1 || got[0].Dst != 3 {
		t.Errorf("cross = %+v", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := NewCollector()
	c.AddEvent(&Event{Rank: 1, Write: true, EIP: 0x400010, VAddr: 0x2000_0000,
		PAddr: 0x5000, Value: 42, Mask: 0xff, InstrNum: 1234, Size: 8})
	c.AddEvent(&Event{Rank: 0, Write: false, EIP: 0x400020, Mask: 1, Size: 1})
	c.AddSample(TimelinePoint{Rank: 1, Instrs: 100000, TaintedBytes: 77})
	c.AddCrossRank(CrossRankRecord{Src: 0, Dst: 1, Tag: 5, Seq: 3, TaintedBytes: 24})

	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Events come back rank by rank: rank 0's read, then rank 1's write.
	evs := back.Events()
	want := []Event{
		{Rank: 0, Write: false, EIP: 0x400020, Mask: 1, Size: 1},
		{Rank: 1, Write: true, EIP: 0x400010, VAddr: 0x2000_0000,
			PAddr: 0x5000, Value: 42, Mask: 0xff, InstrNum: 1234, Size: 8},
	}
	if len(evs) != 2 || evs[0] != want[0] || evs[1] != want[1] {
		t.Errorf("events = %+v, want %+v", evs, want)
	}
	if tl := back.Timeline(); len(tl) != 1 || tl[0].TaintedBytes != 77 {
		t.Errorf("timeline = %+v", tl)
	}
	if cr := back.CrossRank(); len(cr) != 1 || cr[0].TaintedBytes != 24 {
		t.Errorf("cross = %+v", cr)
	}
	if back.TotalWrites() != 1 || back.TotalReads() != 1 {
		t.Error("counts not rebuilt")
	}
}

// TestWriteReadPreservesDropped checks that the log header records cap
// overflow and survives a round trip: a consumer must be able to tell a
// truncated log from a complete one.
func TestWriteReadPreservesDropped(t *testing.T) {
	c := NewCollectorCap(2)
	for i := 0; i < 5; i++ {
		c.AddEvent(&Event{Rank: 0, EIP: uint64(i)})
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.Contains(first, `"kind":"meta"`) || !strings.Contains(first, `"dropped":3`) {
		t.Errorf("first record is not the meta header: %s", first)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dropped() != 3 {
		t.Errorf("dropped after round trip = %d, want 3", back.Dropped())
	}
	if len(back.Events()) != 2 {
		t.Errorf("events after round trip = %d, want 2", len(back.Events()))
	}
}

// TestTruncationMarker checks the explicit cap-boundary marker: a truncated
// log carries a "trunc" record after the last stored event, a complete log
// carries none, and the declared drop count round-trips through Read even
// when a consumer streams past the header.
func TestTruncationMarker(t *testing.T) {
	c := NewCollectorCap(2)
	for i := 0; i < 7; i++ {
		c.AddEvent(&Event{Rank: 0, EIP: uint64(i)})
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// meta, 2 events, trunc.
	if len(lines) != 4 {
		t.Fatalf("log has %d records, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[3], `"kind":"trunc"`) || !strings.Contains(lines[3], `"dropped":5`) {
		t.Errorf("last record is not the truncation marker: %s", lines[3])
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Dropped() != 5 {
		t.Errorf("Dropped after round trip = %d, want 5", back.Dropped())
	}

	// A complete log must not carry the marker.
	var clean bytes.Buffer
	c2 := NewCollector()
	c2.AddEvent(&Event{Rank: 0})
	if _, err := c2.WriteTo(&clean); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), `"kind":"trunc"`) {
		t.Errorf("complete log carries a truncation marker:\n%s", clean.String())
	}
}

// TestReadAccumulatesReaderDrops checks the drop count when the reading
// collector's own cap is smaller than the log: writer-declared drops and
// reader-side drops add up, so Dropped() never understates truncation.
func TestReadAccumulatesReaderDrops(t *testing.T) {
	c := NewCollectorCap(3)
	for i := 0; i < 5; i++ { // 3 stored, 2 dropped at the writer
		c.AddEvent(&Event{Rank: 0, EIP: uint64(i)})
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Read with a tighter cap so 1 of the 3 stored events is dropped again.
	readBack := func(r *bytes.Reader) *Collector {
		t.Helper()
		back := NewCollectorCap(2)
		dec := json.NewDecoder(r)
		for {
			var rec record
			if err := dec.Decode(&rec); err != nil {
				break
			}
			switch rec.Kind {
			case "event":
				back.AddEvent(rec.Event)
			case "meta":
				back.mu.Lock()
				back.declared += rec.Meta.Dropped
				back.mu.Unlock()
			}
		}
		return back
	}
	back := readBack(bytes.NewReader(buf.Bytes()))
	if back.Dropped() != 3 { // 2 declared + 1 reader-side
		t.Errorf("accumulated drops = %d, want 3", back.Dropped())
	}
}

func TestSendOutputRoundTrip(t *testing.T) {
	c := NewCollector()
	c.AddSend(SendRecord{Src: 0, Dst: 1, Tag: 9, Seq: 4, Buf: 0x7000, Len: 16,
		TaintedBytes: 4, EIP: 0x400abc, InstrNum: 9001})
	c.AddOutput(OutputRecord{Rank: 1, Offset: 24, Len: 4, Buf: 0x8000,
		Masks: []uint8{0, 0xff, 0, 1}, EIP: 0x400def, InstrNum: 9100})
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s := back.Sends(); len(s) != 1 || s[0].Buf != 0x7000 || s[0].InstrNum != 9001 {
		t.Errorf("sends = %+v", s)
	}
	o := back.Outputs()
	if len(o) != 1 || o[0].Offset != 24 || o[0].TaintedBytes() != 2 {
		t.Errorf("outputs = %+v", o)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("{not json")); err == nil {
		t.Error("bad json accepted")
	}
	if _, err := Read(bytes.NewBufferString(`{"kind":"zap"}` + "\n")); err == nil {
		t.Error("unknown kind accepted")
	}
	c, err := Read(bytes.NewBufferString(""))
	if err != nil || c == nil {
		t.Error("empty log should parse")
	}
}

func TestCollectorConcurrency(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.AddEvent(&Event{Rank: r, Write: i%2 == 0})
				if i%100 == 0 {
					c.AddSample(TimelinePoint{Rank: r, Instrs: uint64(i)})
				}
			}
		}(r)
	}
	wg.Wait()
	if c.TotalReads()+c.TotalWrites() != 4000 {
		t.Errorf("total events = %d", c.TotalReads()+c.TotalWrites())
	}
}

func TestRegionCounts(t *testing.T) {
	c := NewCollector()
	c.AddEvent(&Event{Rank: 0, Write: false, Region: "heap"})
	c.AddEvent(&Event{Rank: 0, Write: true, Region: "heap"})
	c.AddEvent(&Event{Rank: 0, Write: false, Region: "stack"})
	c.AddEvent(&Event{Rank: 0, Write: false}) // regionless events are allowed
	regions := c.Regions()
	if regions["heap"].Reads != 1 || regions["heap"].Writes != 1 {
		t.Errorf("heap = %+v", regions["heap"])
	}
	if regions["stack"].Reads != 1 || regions["stack"].Writes != 0 {
		t.Errorf("stack = %+v", regions["stack"])
	}
	if _, ok := regions[""]; ok {
		t.Error("empty region counted")
	}
	// Returned map is a copy.
	regions["heap"] = RegionCounts{Reads: 99}
	if c.Regions()["heap"].Reads == 99 {
		t.Error("Regions() aliases internal state")
	}
}

// TestWriteToRoundTripPastCap writes a two-rank log one rank of which ran
// past its share of the cap: WriteTo must report the bytes it wrote
// (io.WriterTo), the counts must account for every access, and Read must
// give back every stored event, sample, cross, send and output record and
// the drop count.
func TestWriteToRoundTripPastCap(t *testing.T) {
	var _ io.WriterTo = (*Collector)(nil)
	c := NewCollectorCap(600) // 300 a rank: each log ends inside its second chunk
	c.ShareAmong(2)
	for i := 0; i < 700; i++ {
		c.AddEvent(&Event{Rank: 0, Write: i%3 == 0, EIP: 0x400000 + uint64(i), VAddr: 0x2000_0000 + uint64(8*i),
			PAddr: 0x5000 + uint64(8*i), Value: uint64(i) << 40, Mask: 1 << (i % 64), InstrNum: uint64(i), Size: 8, Region: "heap"})
	}
	for i := 0; i < 100; i++ {
		c.AddEvent(&Event{Rank: 1, EIP: uint64(i), Mask: 0xff, InstrNum: uint64(2 * i), Size: 1, Region: "stack"})
	}
	c.AddSample(TimelinePoint{Rank: 0, Instrs: 100000, TaintedBytes: 77})
	c.AddCrossRank(CrossRankRecord{Src: 0, Dst: 1, Tag: 5, Seq: 3, TaintedBytes: 24, EIP: 0x400100, InstrNum: 50, Buf: 0x7000, Len: 32})
	c.AddSend(SendRecord{Src: 0, Dst: 1, Tag: 5, Seq: 3, Buf: 0x6000, Len: 32, TaintedBytes: 24, EIP: 0x4000f0, InstrNum: 40})
	c.AddOutput(OutputRecord{Rank: 1, Offset: 8, Len: 2, Buf: 0x8000, Masks: []uint8{0, 0x80}, EIP: 0x400200, InstrNum: 190})

	if c.Stored() != 400 || c.Dropped() != 400 || c.TotalReads()+c.TotalWrites() != 800 {
		t.Fatalf("stored %d + dropped %d, counted %d; want 400 + 400 of 800",
			c.Stored(), c.Dropped(), c.TotalReads()+c.TotalWrites())
	}
	evs := c.Events()
	if len(evs) != 400 || evs[299].InstrNum != 299 || evs[300].Rank != 1 {
		t.Fatalf("rank 0 did not keep exactly its first 300 events: %d stored, [299]=%+v [300]=%+v", len(evs), evs[299], evs[300])
	}

	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Errorf("WriteTo returned %d, wrote %d bytes", n, buf.Len())
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Events(), evs) {
		t.Error("events did not round-trip")
	}
	if back.Dropped() != 400 || back.Stored() != 400 {
		t.Errorf("read back %d stored, %d dropped; want 400, 400", back.Stored(), back.Dropped())
	}
	if !reflect.DeepEqual(back.Timeline(), c.Timeline()) || !reflect.DeepEqual(back.CrossRank(), c.CrossRank()) ||
		!reflect.DeepEqual(back.Sends(), c.Sends()) || !reflect.DeepEqual(back.Outputs(), c.Outputs()) {
		t.Error("sample, cross, send or output records did not round-trip")
	}
	if got, want := back.Regions(), (map[string]RegionCounts{"heap": {Reads: 200, Writes: 100}, "stack": {Reads: 100}}); !reflect.DeepEqual(got, want) {
		t.Errorf("regions of the stored prefix = %+v, want %+v", got, want)
	}

	// A failing writer still reports what it took.
	n, err = c.WriteTo(&failAfter{left: 1000})
	if err == nil || n != 1000 {
		t.Errorf("WriteTo into a writer that fails after 1000 bytes returned %d, %v", n, err)
	}
}

type failAfter struct{ left int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, io.ErrShortWrite
	}
	w.left -= len(p)
	return len(p), nil
}

// TestCapShareIgnoresInterleaving runs four ranks past a shared cap from
// four goroutines: whatever the schedule, each rank keeps exactly the first
// quarter-cap accesses it made.
func TestCapShareIgnoresInterleaving(t *testing.T) {
	c := NewCollectorCap(400)
	c.ShareAmong(4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50+100*r; i++ {
				c.AddEvent(&Event{Rank: r, InstrNum: uint64(i)})
			}
		}(r)
	}
	wg.Wait()
	var want []Event
	for r := 0; r < 4; r++ {
		for i := 0; i < min(50+100*r, 100); i++ {
			want = append(want, Event{Rank: r, InstrNum: uint64(i)})
		}
	}
	if got := c.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("stored %d events, want each rank's first min(n, 100): %d", len(got), len(want))
	}
	if c.Dropped() != 50+150+250 {
		t.Errorf("dropped = %d, want 450", c.Dropped())
	}
}

// TestReadRejectsUnstorableEvents checks that a log from outside cannot make
// the collector index by a bad rank or silently narrow a width.
func TestReadRejectsUnstorableEvents(t *testing.T) {
	for _, line := range []string{
		`{"kind":"event","event":{"rank":-1}}`,
		`{"kind":"event","event":{"rank":65536}}`,
		`{"kind":"event","event":{"rank":0,"size":65536}}`,
		`{"kind":"event","event":{"rank":0,"size":-1}}`,
	} {
		if _, err := Read(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("accepted %s", line)
		}
	}
	var sb strings.Builder
	for i := 0; i < maxRegions; i++ {
		fmt.Fprintf(&sb, `{"kind":"event","event":{"rank":0,"region":"r%d"}}`+"\n", i)
	}
	if _, err := Read(strings.NewReader(sb.String())); err == nil {
		t.Errorf("accepted %d named regions on one rank", maxRegions)
	}
}

// TestFirstChunkGrows: a log's first chunk starts small and is regrown to the
// full chunk size; every record must read back in order at every length, a
// view taken before a regrowth must keep reading its prefix, and a short log
// must not have paid for a full chunk.
func TestFirstChunkGrows(t *testing.T) {
	c := NewCollector()
	var early []rankView
	for i := 0; i < 3*chunkEvents; i++ {
		c.AddEvent(&Event{Rank: 0, EIP: uint64(i), InstrNum: uint64(i), Size: 8, Region: "heap"})
		if n := i + 1; n == firstChunkEvents-1 || n == firstChunkEvents+1 || n == chunkEvents-1 {
			early = append(early, c.views()[0])
		}
		if i == firstChunkEvents/2 {
			if got := cap(c.table()[0].chunks[0]); got != firstChunkEvents {
				t.Fatalf("a log of %d events holds a chunk of %d records, want %d", i+1, got, firstChunkEvents)
			}
		}
	}
	evs := c.Events()
	if len(evs) != 3*chunkEvents {
		t.Fatalf("stored %d events, want %d", len(evs), 3*chunkEvents)
	}
	for i, ev := range evs {
		if ev.InstrNum != uint64(i) || ev.Region != "heap" {
			t.Fatalf("event %d reads back as %+v", i, ev)
		}
	}
	for _, v := range early {
		for i := 0; i < v.stored; i++ {
			if got := v.event(i).InstrNum; got != uint64(i) {
				t.Fatalf("a view of %d events reads event %d as %d after the log grew", v.stored, i, got)
			}
		}
	}
	for i, ch := range c.table()[0].chunks {
		if len(ch) != chunkEvents {
			t.Errorf("chunk %d of the grown log holds %d records, want %d", i, len(ch), chunkEvents)
		}
	}
}

// TestCollectorWithoutAccessLog: the collector of a run that was told nobody
// reads its access log stores and tallies nothing, and everything made from
// it — the serialized log, a collector read back from that, the provenance
// graph — says the log was not kept instead of passing for a run without a
// tainted access. The records that do not come from accesses are kept.
func TestCollectorWithoutAccessLog(t *testing.T) {
	c := NewCollectorNoAccessLog()
	if c.AccessLogKept() || !NewCollector().AccessLogKept() {
		t.Fatal("AccessLogKept is the wrong way round")
	}
	c.AddSample(TimelinePoint{Rank: 0, Instrs: 100000, TaintedBytes: 8})
	c.AddSend(SendRecord{Src: 0, Dst: 1, Tag: 3, Len: 8, TaintedBytes: 8, InstrNum: 40})
	c.AddCrossRank(CrossRankRecord{Src: 0, Dst: 1, Tag: 3, TaintedBytes: 8, InstrNum: 50})
	c.AddOutput(OutputRecord{Rank: 1, Len: 8, Masks: []uint8{1, 0, 0, 0, 0, 0, 0, 0}, InstrNum: 60})
	if err := c.addEvent(&Event{Rank: 0}); err == nil {
		t.Error("an access was logged to a collector that keeps no log")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an appender added to a collector that keeps no log")
			}
		}()
		add, _ := c.Appender(0)
		add(&Event{})
	}()
	if c.Stored() != 0 || c.Dropped() != 0 || c.TotalReads() != 0 || c.TotalWrites() != 0 || len(c.Regions()) != 0 {
		t.Errorf("stored %d dropped %d totals %d/%d regions %v, want nothing",
			c.Stored(), c.Dropped(), c.TotalReads(), c.TotalWrites(), c.Regions())
	}
	if !c.Propagated() {
		t.Error("the cross-rank record was lost")
	}

	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(buf.String(), "\n")
	if first != `{"kind":"meta","meta":{"stored":0,"dropped":0,"access_log_not_kept":true}}` {
		t.Errorf("meta line %s does not say the access log was not kept", first)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.AccessLogKept() || len(back.Timeline()) != 1 || len(back.Sends()) != 1 || len(back.CrossRank()) != 1 || len(back.Outputs()) != 1 {
		t.Errorf("read back: log kept %v, %d samples, %d sends, %d crosses, %d outputs",
			back.AccessLogKept(), len(back.Timeline()), len(back.Sends()), len(back.CrossRank()), len(back.Outputs()))
	}

	g := BuildGraph(c, []InjectionSite{{Rank: 0, InstrNum: 10, Op: "fadd"}})
	if !g.NoAccessLog || g.Truncated {
		t.Errorf("graph NoAccessLog %v Truncated %v, want true and false", g.NoAccessLog, g.Truncated)
	}
	var js bytes.Buffer
	if err := g.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"access_log_not_kept": true`) {
		t.Errorf("graph JSON does not carry the mark:\n%s", js.String())
	}
	if kept := BuildGraph(NewCollector(), nil); kept.NoAccessLog {
		t.Error("the graph of a log-keeping collector is marked")
	}
}

// TestAppenderMatchesAddEvent: a rank's appender writes what AddEvent writes
// — records, tallies, region table — whether a region's name keeps arriving
// in the storage it first came in (a machine's region table) or in storage
// of its own each time (a decoded log), and a rank that never adds stays out
// of the log. Until its publish, readers see each rank as of its last chunk
// boundary.
func TestAppenderMatchesAddEvent(t *testing.T) {
	regions := []string{"heap", "stack", "", "data", "heap"}
	events := func(fresh bool) []Event {
		var evs []Event
		for i := 0; i < 3*chunkEvents; i++ {
			name := regions[i%len(regions)]
			if fresh {
				name = string([]byte(name))
			}
			evs = append(evs, Event{Rank: i % 2, Write: i%3 == 0, EIP: uint64(i), VAddr: uint64(8 * i), Mask: 1, InstrNum: uint64(i), Size: 8, Region: name})
		}
		return evs
	}
	for _, fresh := range []bool{false, true} {
		want, got := NewCollector(), NewCollector()
		want.ShareAmong(2)
		got.ShareAmong(2)
		var adds []func(*Event)
		var publishes []func()
		for rank := 0; rank < 3; rank++ {
			add, publish := got.Appender(rank)
			adds, publishes = append(adds, add), append(publishes, publish)
		}
		for _, ev := range events(fresh) {
			want.AddEvent(&ev)
			adds[ev.Rank](&ev)
		}
		// Each rank added 384 accesses and last crossed a chunk boundary at
		// its 256th.
		if n, evs := got.TotalReads()+got.TotalWrites(), got.Events(); n != 2*chunkEvents || !reflect.DeepEqual(evs, append(want.Events()[:chunkEvents:chunkEvents], want.Events()[3*chunkEvents/2:5*chunkEvents/2]...)) {
			t.Errorf("fresh names %v: before publish readers see %d accesses and %d records, want each rank's first %d", fresh, n, len(evs), chunkEvents)
		}
		for _, publish := range publishes {
			publish()
		}
		if !reflect.DeepEqual(want.Events(), got.Events()) {
			t.Errorf("fresh names %v: the appenders' log differs from AddEvent's", fresh)
		}
		if !reflect.DeepEqual(want.Regions(), got.Regions()) || want.TotalReads() != got.TotalReads() || want.TotalWrites() != got.TotalWrites() {
			t.Errorf("fresh names %v: tallies differ: %v %d/%d, want %v %d/%d", fresh,
				got.Regions(), got.TotalReads(), got.TotalWrites(), want.Regions(), want.TotalReads(), want.TotalWrites())
		}
		if n := len(got.views()); n != 2 {
			t.Errorf("fresh names %v: %d ranks in the log, want the 2 that added", fresh, n)
		}
		for _, l := range got.table() {
			if len(l.names) != 4 {
				t.Errorf("fresh names %v: region table %q, want each name once", fresh, l.names)
			}
		}
	}
}
