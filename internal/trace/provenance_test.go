package trace

import (
	"bytes"
	"strings"
	"testing"
)

// twoRankCollector builds a synthetic propagation log mimicking the paper's
// canonical scenario: a fault injected into rank 0's FADD result is stored,
// reloaded, sent to rank 1 over MPI, used in a multiply there, and written to
// rank 1's output file.
func twoRankCollector() (*Collector, []InjectionSite) {
	c := NewCollector()
	sites := []InjectionSite{{
		Rank: 0, PC: 0x400100, InstrNum: 50, ExecCount: 3,
		Op: "fadd", Mask: 1 << 12, Target: "reg f2",
	}}
	// Rank 0: the corrupted register is spilled, reloaded, and sent.
	c.AddEvent(&Event{Rank: 0, Write: true, EIP: 0x400104, VAddr: 0x2000, Size: 8, Mask: 1 << 12, InstrNum: 51, Region: "stack"})
	c.AddEvent(&Event{Rank: 0, Write: false, EIP: 0x400120, VAddr: 0x2000, Size: 8, Mask: 1 << 12, InstrNum: 60, Region: "stack"})
	c.AddEvent(&Event{Rank: 0, Write: true, EIP: 0x400124, VAddr: 0x3000, Size: 8, Mask: 1 << 12, InstrNum: 61, Region: "heap"})
	c.AddSend(SendRecord{Src: 0, Dst: 1, Tag: 3, Seq: 0, Buf: 0x3000, Len: 8,
		TaintedBytes: 8, EIP: 0x400130, InstrNum: 70})
	// Rank 1: receive, compute, emit output bytes 8..16 of its file.
	c.AddCrossRank(CrossRankRecord{Src: 0, Dst: 1, Tag: 3, Seq: 0, TaintedBytes: 8,
		EIP: 0x400200, InstrNum: 40, Buf: 0x5000, Len: 8})
	c.AddEvent(&Event{Rank: 1, Write: false, EIP: 0x400210, VAddr: 0x5000, Size: 8, Mask: 1 << 12, InstrNum: 45, Region: "heap"})
	c.AddEvent(&Event{Rank: 1, Write: true, EIP: 0x400214, VAddr: 0x5008, Size: 8, Mask: 1 << 12, InstrNum: 46, Region: "heap"})
	c.AddOutput(OutputRecord{Rank: 1, Offset: 8, Len: 8, Buf: 0x5008,
		Masks: []uint8{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		EIP:   0x400220, InstrNum: 50})
	return c, sites
}

func TestBuildGraphTwoRanks(t *testing.T) {
	c, sites := twoRankCollector()
	g := BuildGraph(c, sites)
	if g.Truncated {
		t.Error("graph marked truncated without drops")
	}
	// 1 injection + 5 mem events + 1 send + 1 recv + 1 output.
	if len(g.Nodes) != 9 {
		t.Fatalf("nodes = %d, want 9", len(g.Nodes))
	}
	if g.CrossRankEdges != 1 {
		t.Fatalf("cross-rank edges = %d, want 1", g.CrossRankEdges)
	}
	var msg *Edge
	for i := range g.Edges {
		if g.Edges[i].Kind == "message" {
			msg = &g.Edges[i]
		}
	}
	if msg == nil {
		t.Fatal("no message edge")
	}
	if g.Nodes[msg.From].Kind != "send" || g.Nodes[msg.From].Rank != 0 {
		t.Errorf("message edge source = %+v", g.Nodes[msg.From])
	}
	if g.Nodes[msg.To].Kind != "recv" || g.Nodes[msg.To].Rank != 1 {
		t.Errorf("message edge target = %+v", g.Nodes[msg.To])
	}
}

func TestBlamePathReachesInjection(t *testing.T) {
	c, sites := twoRankCollector()
	g := BuildGraph(c, sites)
	// Corrupted byte 10 of rank 1's output lies inside output[8:16].
	path, ok := g.BlamePath(1, 10)
	if !ok {
		t.Fatalf("blame path did not reach the injection: %+v", path)
	}
	if path[0].Kind != "injection" || path[0].Rank != 0 || path[0].EIP != 0x400100 {
		t.Errorf("path root = %+v, want the rank-0 injection", path[0])
	}
	if last := path[len(path)-1]; last.Kind != "output" || last.Rank != 1 {
		t.Errorf("path tail = %+v, want the rank-1 output", last)
	}
	// The walk must traverse the message boundary: both a send and a recv
	// node appear in order.
	sendAt, recvAt := -1, -1
	for i, n := range path {
		switch n.Kind {
		case "send":
			sendAt = i
		case "recv":
			recvAt = i
		}
	}
	if sendAt < 0 || recvAt < 0 || sendAt > recvAt {
		t.Errorf("path does not cross ranks via send->recv: %+v", path)
	}
	// A byte nothing wrote has no blame path.
	if _, ok := g.BlamePath(1, 999); ok {
		t.Error("blame path for an unwritten byte")
	}
	if _, ok := g.BlamePath(0, 10); ok {
		t.Error("blame path on a rank without output nodes")
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	c, sites := twoRankCollector()
	g := BuildGraph(c, sites)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(g.Nodes) || len(back.Edges) != len(g.Edges) {
		t.Fatalf("round trip lost shape: %d/%d nodes, %d/%d edges",
			len(back.Nodes), len(g.Nodes), len(back.Edges), len(g.Edges))
	}
	// The query index is rebuilt after decoding.
	path, ok := back.BlamePath(1, 10)
	if !ok || path[0].Kind != "injection" {
		t.Errorf("blame path after round trip: ok=%v path=%+v", ok, path)
	}
}

func TestGraphDOT(t *testing.T) {
	c, sites := twoRankCollector()
	g := BuildGraph(c, sites)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	for _, want := range []string{
		"digraph provenance {",
		"subgraph cluster_rank_0",
		"subgraph cluster_rank_1",
		"doubleoctagon", // injection node shape
		"style=dashed",  // the cross-rank message edge
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestBuildGraphNodeCap(t *testing.T) {
	c, sites := twoRankCollector()
	g := BuildGraphCap(c, sites, 3)
	if !g.Truncated {
		t.Error("capped graph not marked truncated")
	}
	if len(g.Nodes) != 3 {
		t.Errorf("nodes = %d, want cap 3", len(g.Nodes))
	}
}

func TestBuildGraphTruncatedCollector(t *testing.T) {
	c := NewCollectorCap(1)
	c.AddEvent(&Event{Rank: 0, Write: true, VAddr: 0x100, Size: 4, InstrNum: 1})
	c.AddEvent(&Event{Rank: 0, Write: true, VAddr: 0x200, Size: 4, InstrNum: 2}) // dropped
	g := BuildGraph(c, nil)
	if !g.Truncated {
		t.Error("graph from a collector with drops must be marked truncated")
	}
}

func TestBuildGraphMetaSend(t *testing.T) {
	// Envelope-only propagation: a meta cross-rank record becomes a send node
	// fed by the sender's taint cursor, with no message edge (no payload poll
	// pair to stitch).
	c := NewCollector()
	sites := []InjectionSite{{Rank: 0, PC: 0x400000, InstrNum: 5, Op: "add", Target: "reg r3"}}
	c.AddEvent(&Event{Rank: 0, Write: false, EIP: 0x400010, VAddr: 0x100, Size: 4, InstrNum: 8})
	c.AddCrossRank(CrossRankRecord{Src: 0, Dst: 2, Tag: 1, Seq: 0, Meta: true, EIP: 0x400020, InstrNum: 9})
	g := BuildGraph(c, sites)
	var send *Node
	for i := range g.Nodes {
		if g.Nodes[i].Kind == "send" {
			send = &g.Nodes[i]
		}
	}
	if send == nil || !strings.Contains(send.Label, "meta") {
		t.Fatalf("meta send node missing: %+v", g.Nodes)
	}
	if g.CrossRankEdges != 0 {
		t.Errorf("meta record produced %d message edges", g.CrossRankEdges)
	}
	path, ok := g.PathFrom(send.ID)
	if !ok || path[0].Kind != "injection" {
		t.Errorf("meta send not rooted at injection: ok=%v %+v", ok, path)
	}
}

func TestBuildGraphNilAndEmpty(t *testing.T) {
	g := BuildGraph(nil, nil)
	if len(g.Nodes) != 0 || len(g.Edges) != 0 || g.Truncated {
		t.Errorf("nil collector graph = %+v", g)
	}
	if _, ok := g.BlamePath(0, 0); ok {
		t.Error("blame path on empty graph")
	}
	g = BuildGraph(NewCollector(), nil)
	if len(g.Nodes) != 0 {
		t.Errorf("empty collector graph has %d nodes", len(g.Nodes))
	}
}

func TestMemoryInjectionSeedsByteWriters(t *testing.T) {
	// A memory-target injection must seed the byte-writer map so the first
	// read of the corrupted word chains to the injection, not the cursor.
	c := NewCollector()
	sites := []InjectionSite{{Rank: 0, PC: 0x400000, InstrNum: 10,
		Op: "load", Target: "mem 0x2000", MemAddr: 0x2000, Mask: 0xff}}
	c.AddEvent(&Event{Rank: 0, Write: false, EIP: 0x400050, VAddr: 0x2000, Size: 8, InstrNum: 20})
	c.AddOutput(OutputRecord{Rank: 0, Offset: 0, Len: 8, Masks: []uint8{1, 1, 1, 1, 1, 1, 1, 1},
		EIP: 0x400060, InstrNum: 30})
	g := BuildGraph(c, sites)
	path, ok := g.BlamePath(0, 0)
	if !ok {
		t.Fatalf("no blame path: %+v", g)
	}
	if len(path) != 3 || path[0].Kind != "injection" || path[1].Kind != "read" || path[2].Kind != "output" {
		t.Errorf("path = %+v, want injection->read->output", path)
	}
}

func TestOutputRecordTaintedBytes(t *testing.T) {
	o := OutputRecord{Masks: []uint8{0, 1, 0, 0xff}}
	if got := o.TaintedBytes(); got != 2 {
		t.Errorf("TaintedBytes = %d, want 2", got)
	}
}
