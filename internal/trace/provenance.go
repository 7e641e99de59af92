// Provenance turns the flat propagation log into a DAG answering the
// accountability question the paper poses: exactly how did a soft error born
// at one instruction reach a corrupted output byte? Nodes are taint events —
// the injection itself, tainted memory reads and writes, tainted MPI sends
// and receives, and tainted output writes — keyed by (rank, eip, instruction
// count, location). Intra-rank edges follow the dataflow implied by the
// read/write taint callbacks (a read draws from the last tainted writer of
// its bytes, a write draws from the most recent tainted value source);
// cross-rank edges are stitched from TaintHub publish/poll pairs matched on
// (src, dst, tag, seq).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// InjectionSite is the provenance root: where and when a fault was placed.
// It mirrors core.InjectionRecord without importing core (core imports
// trace). MemAddr is non-zero when the corruption hit a memory word rather
// than a register.
type InjectionSite struct {
	Rank      int    `json:"rank"`
	PC        uint64 `json:"pc"`
	InstrNum  uint64 `json:"instr"`
	ExecCount uint64 `json:"exec_count,omitempty"`
	Op        string `json:"op,omitempty"`
	Mask      uint64 `json:"mask,omitempty"`
	Target    string `json:"target,omitempty"`
	MemAddr   uint64 `json:"mem_addr,omitempty"`
}

// NodeKind classifies provenance nodes.
type NodeKind int

// Node kinds, in causal-priority order: when several items share one
// instruction count, the smaller kind happened first (an injection precedes
// the reads of the instruction it armed, a receive precedes the reads of the
// buffer it filled, a send/output follows the accesses that fed it).
const (
	KindInjection NodeKind = iota + 1
	KindRecv
	KindRead
	KindWrite
	KindSend
	KindOutput
)

// String returns the kind name used in JSON and DOT exports.
func (k NodeKind) String() string {
	switch k {
	case KindInjection:
		return "injection"
	case KindRecv:
		return "recv"
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	case KindSend:
		return "send"
	case KindOutput:
		return "output"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is one taint event in the provenance DAG.
type Node struct {
	ID   int    `json:"id"`
	Kind string `json:"kind"`
	Rank int    `json:"rank"`
	// EIP is the guest instruction pointer of the event; InstrNum its
	// position in the rank's retired-instruction stream.
	EIP      uint64 `json:"eip"`
	InstrNum uint64 `json:"instr"`
	// Addr locates the data: the virtual address for memory events, the
	// message buffer for send/recv, the output-file byte offset for output
	// nodes, the corrupted register/word for the injection.
	Addr uint64 `json:"addr"`
	Size int    `json:"size,omitempty"`
	Mask uint64 `json:"mask,omitempty"`
	// Label carries kind-specific detail (the injected op and target, the
	// message (src->dst tag) triple, ...).
	Label string `json:"label,omitempty"`

	kind NodeKind
}

// Edge is one provenance edge. Kind is "data" for intra-rank dataflow and
// "message" for cross-rank edges stitched from TaintHub pairs.
type Edge struct {
	From int    `json:"from"`
	To   int    `json:"to"`
	Kind string `json:"kind"`
}

// Graph is a fault-propagation provenance DAG.
type Graph struct {
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
	// Truncated is set when the source collector dropped events at its cap
	// or the builder hit its node budget: the DAG is a correct prefix, not
	// the complete propagation history.
	Truncated bool `json:"truncated,omitempty"`
	// NoAccessLog is set when the source collector kept no access log (see
	// NewCollectorNoAccessLog): the graph has the run's injections, sends,
	// receives and outputs but no read or write between them, so a blame
	// path stops where the log would have carried it on.
	NoAccessLog bool `json:"access_log_not_kept,omitempty"`
	// CrossRankEdges counts the stitched message edges.
	CrossRankEdges int `json:"cross_rank_edges"`

	parents map[int][]int
}

// DefaultMaxGraphNodes bounds graph construction; a pathological run with a
// full 64K-event log would otherwise build a graph nobody can render.
const DefaultMaxGraphNodes = 100_000

// BuildGraph builds the provenance DAG from a run's propagation log and its
// injection records, with the default node budget.
func BuildGraph(c *Collector, sites []InjectionSite) *Graph {
	return BuildGraphCap(c, sites, DefaultMaxGraphNodes)
}

// item is one per-rank stream entry during construction.
type item struct {
	instr uint64
	kind  NodeKind
	idx   int // index into the per-kind source slice (memory accesses: into the rank's log)
}

type sendKey struct {
	src, dst, tag int
	seq           uint64
}

// BuildGraphCap is BuildGraph with an explicit node budget (<=0 means
// unlimited). Construction is deterministic: the same collector contents
// yield the same node IDs and edges.
func BuildGraphCap(c *Collector, sites []InjectionSite, maxNodes int) *Graph {
	g := &Graph{parents: make(map[int][]int)}
	if c == nil {
		return g
	}
	sends := c.Sends()
	crosses := c.CrossRank()
	outputs := c.Outputs()
	if c.Dropped() > 0 {
		g.Truncated = true
	}
	g.NoAccessLog = c.noLog

	// Group the streams by rank, preserving per-rank order (collectors
	// append per rank in execution order; the record slices interleave
	// ranks). Memory accesses are read where the log stores them.
	perRank := map[int][]item{}
	push := func(rank int, it item) { perRank[rank] = append(perRank[rank], it) }
	for i := range sites {
		push(sites[i].Rank, item{instr: sites[i].InstrNum, kind: KindInjection, idx: i})
	}
	logs := make(map[int]*rankLog, len(c.logs))
	for _, l := range c.logged() {
		logs[l.rank] = l
		items := slices.Grow(perRank[l.rank], l.stored())
		for j := 0; j < l.stored(); j++ {
			p := l.record(j)
			k := KindRead
			if p.write {
				k = KindWrite
			}
			items = append(items, item{instr: p.instr, kind: k, idx: j})
		}
		perRank[l.rank] = items
	}
	for i := range sends {
		push(sends[i].Src, item{instr: sends[i].InstrNum, kind: KindSend, idx: i})
	}
	for i := range crosses {
		if crosses[i].Meta {
			// Envelope-only propagation has no payload bytes to chain from;
			// represent it as a sender-side send node below via its record.
			push(crosses[i].Src, item{instr: crosses[i].InstrNum, kind: KindSend, idx: -1 - i})
			continue
		}
		push(crosses[i].Dst, item{instr: crosses[i].InstrNum, kind: KindRecv, idx: i})
	}
	for i := range outputs {
		push(outputs[i].Rank, item{instr: outputs[i].InstrNum, kind: KindOutput, idx: i})
	}

	ranks := make([]int, 0, len(perRank))
	for r := range perRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)

	addNode := func(n Node) int {
		if maxNodes > 0 && len(g.Nodes) >= maxNodes {
			g.Truncated = true
			return -1
		}
		n.ID = len(g.Nodes)
		g.Nodes = append(g.Nodes, n)
		return n.ID
	}
	addEdge := func(from, to int, kind string) {
		if from < 0 || to < 0 || from == to {
			return
		}
		g.Edges = append(g.Edges, Edge{From: from, To: to, Kind: kind})
		g.parents[to] = append(g.parents[to], from)
	}

	sendNodes := map[sendKey]int{} // filled on rank passes, resolved after
	recvNodes := map[sendKey]int{} // pending message-edge endpoints
	for _, rank := range ranks {
		items := perRank[rank]
		log := logs[rank]
		// Stable sort by (instr, causal kind priority): per-rank append
		// order already agrees with execution order, the sort only
		// interleaves the different record streams correctly.
		sort.SliceStable(items, func(i, j int) bool {
			if items[i].instr != items[j].instr {
				return items[i].instr < items[j].instr
			}
			return items[i].kind < items[j].kind
		})

		byteWriter := map[uint64]int{} // guest byte address -> writing node
		cursor := -1                   // most recent tainted value source on this rank

		// byteParents collects the deduped writer nodes of a byte range.
		byteParents := func(addr uint64, size int) []int {
			var out []int
			for b := uint64(0); b < uint64(size); b++ {
				if id, ok := byteWriter[addr+b]; ok && !slices.Contains(out, id) {
					out = append(out, id)
				}
			}
			return out
		}
		setWriter := func(addr uint64, size, id int) {
			for b := uint64(0); b < uint64(size); b++ {
				byteWriter[addr+b] = id
			}
		}

		for _, it := range items {
			switch it.kind {
			case KindInjection:
				s := sites[it.idx]
				id := addNode(Node{
					kind: KindInjection, Kind: KindInjection.String(),
					Rank: rank, EIP: s.PC, InstrNum: s.InstrNum,
					Addr: s.MemAddr, Mask: s.Mask,
					Label: fmt.Sprintf("%s %s exec#%d", s.Op, s.Target, s.ExecCount),
				})
				if id < 0 {
					continue
				}
				cursor = id
				if s.MemAddr != 0 {
					setWriter(s.MemAddr, 8, id)
				}

			case KindRead:
				ev := log.event(it.idx)
				id := addNode(Node{
					kind: KindRead, Kind: KindRead.String(),
					Rank: rank, EIP: ev.EIP, InstrNum: ev.InstrNum,
					Addr: ev.VAddr, Size: ev.Size, Mask: ev.Mask,
					Label: ev.Region,
				})
				if id < 0 {
					continue
				}
				parents := byteParents(ev.VAddr, ev.Size)
				if len(parents) == 0 && cursor >= 0 {
					parents = []int{cursor}
				}
				for _, p := range parents {
					addEdge(p, id, "data")
				}
				cursor = id

			case KindWrite:
				ev := log.event(it.idx)
				id := addNode(Node{
					kind: KindWrite, Kind: KindWrite.String(),
					Rank: rank, EIP: ev.EIP, InstrNum: ev.InstrNum,
					Addr: ev.VAddr, Size: ev.Size, Mask: ev.Mask,
					Label: ev.Region,
				})
				if id < 0 {
					continue
				}
				if cursor >= 0 {
					addEdge(cursor, id, "data")
				}
				setWriter(ev.VAddr, ev.Size, id)

			case KindSend:
				var n Node
				var parents []int
				var key sendKey
				if it.idx < 0 {
					// Envelope-metadata propagation (tainted count/dest/tag,
					// clean payload).
					cr := crosses[-1-it.idx]
					n = Node{
						kind: KindSend, Kind: KindSend.String(),
						Rank: rank, EIP: cr.EIP, InstrNum: cr.InstrNum,
						Label: fmt.Sprintf("meta %d->%d tag %d", cr.Src, cr.Dst, cr.Tag),
					}
					if cursor >= 0 {
						parents = []int{cursor}
					}
				} else {
					sr := sends[it.idx]
					n = Node{
						kind: KindSend, Kind: KindSend.String(),
						Rank: rank, EIP: sr.EIP, InstrNum: sr.InstrNum,
						Addr: sr.Buf, Size: sr.Len,
						Label: fmt.Sprintf("%d->%d tag %d seq %d", sr.Src, sr.Dst, sr.Tag, sr.Seq),
					}
					parents = byteParents(sr.Buf, sr.Len)
					if len(parents) == 0 && cursor >= 0 {
						parents = []int{cursor}
					}
					key = sendKey{src: sr.Src, dst: sr.Dst, tag: sr.Tag, seq: sr.Seq}
				}
				id := addNode(n)
				if id < 0 {
					continue
				}
				for _, p := range parents {
					addEdge(p, id, "data")
				}
				if it.idx >= 0 {
					sendNodes[key] = id
				}

			case KindRecv:
				cr := crosses[it.idx]
				id := addNode(Node{
					kind: KindRecv, Kind: KindRecv.String(),
					Rank: rank, EIP: cr.EIP, InstrNum: cr.InstrNum,
					Addr: cr.Buf, Size: cr.Len,
					Label: fmt.Sprintf("%d->%d tag %d seq %d", cr.Src, cr.Dst, cr.Tag, cr.Seq),
				})
				if id < 0 {
					continue
				}
				recvNodes[sendKey{src: cr.Src, dst: cr.Dst, tag: cr.Tag, seq: cr.Seq}] = id
				if cr.Buf != 0 && cr.Len > 0 {
					setWriter(cr.Buf, cr.Len, id)
				}
				cursor = id

			case KindOutput:
				or := outputs[it.idx]
				id := addNode(Node{
					kind: KindOutput, Kind: KindOutput.String(),
					Rank: rank, EIP: or.EIP, InstrNum: or.InstrNum,
					Addr: uint64(or.Offset), Size: or.Len,
					Label: fmt.Sprintf("output[%d:%d]", or.Offset, or.Offset+or.Len),
				})
				if id < 0 {
					continue
				}
				var parents []int
				if or.Buf != 0 {
					parents = byteParents(or.Buf, or.Len)
				}
				if len(parents) == 0 && cursor >= 0 {
					parents = []int{cursor}
				}
				for _, p := range parents {
					addEdge(p, id, "data")
				}
			}
		}
	}

	// Stitch the cross-rank edges from matched publish/poll pairs.
	for key, recvID := range recvNodes {
		if sendID, ok := sendNodes[key]; ok {
			addEdge(sendID, recvID, "message")
			g.CrossRankEdges++
		}
	}
	return g
}

// rebuildParents restores the adjacency index after JSON decoding.
func (g *Graph) rebuildParents() {
	g.parents = make(map[int][]int, len(g.Nodes))
	for _, e := range g.Edges {
		g.parents[e.To] = append(g.parents[e.To], e.From)
	}
	for i := range g.Nodes {
		for k := KindInjection; k <= KindOutput; k++ {
			if g.Nodes[i].Kind == k.String() {
				g.Nodes[i].kind = k
			}
		}
	}
}

// BlamePath answers the accountability query: given a corrupted byte of one
// rank's output file, walk the DAG backwards to the fault that caused it.
// The returned path runs injection-first, output-last. ok is false when no
// output node covers the offset or the walk does not terminate at an
// injection node (e.g. a truncated log).
func (g *Graph) BlamePath(rank, outputOffset int) (path []Node, ok bool) {
	// Find the output node covering the offset (output files are
	// append-only, so at most one does).
	start := -1
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.kind == KindOutput && n.Rank == rank &&
			uint64(outputOffset) >= n.Addr && outputOffset < int(n.Addr)+n.Size {
			start = n.ID
			break
		}
	}
	if start < 0 {
		return nil, false
	}
	return g.PathFrom(start)
}

// PathFrom walks backwards from one node to its provenance root, choosing at
// each step the parent with the greatest instruction count (the most recent
// dataflow into the node). The path is returned root-first; ok reports
// whether the root is an injection node.
func (g *Graph) PathFrom(id int) ([]Node, bool) {
	if g.parents == nil {
		g.rebuildParents()
	}
	var rev []Node
	visited := map[int]bool{}
	for id >= 0 && !visited[id] {
		visited[id] = true
		rev = append(rev, g.Nodes[id])
		parents := g.parents[id]
		if len(parents) == 0 {
			break
		}
		best := parents[0]
		for _, p := range parents[1:] {
			if g.Nodes[p].InstrNum > g.Nodes[best].InstrNum {
				best = p
			}
		}
		id = best
	}
	// Reverse to root-first order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, len(rev) > 0 && rev[0].kind == KindInjection
}

// WriteJSON serializes the graph. Empty node/edge sets serialize as [] (not
// null) so dashboard consumers can iterate without null checks.
func (g *Graph) WriteJSON(w io.Writer) error {
	out := *g
	if out.Nodes == nil {
		out.Nodes = []Node{}
	}
	if out.Edges == nil {
		out.Edges = []Edge{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// ReadGraph parses a JSON graph back, restoring the query index.
func ReadGraph(r io.Reader) (*Graph, error) {
	var g Graph
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("trace: parse graph: %w", err)
	}
	g.rebuildParents()
	return &g, nil
}

// WriteDOT renders the graph in Graphviz DOT: one cluster per rank, node
// shapes per kind, message edges dashed.
func (g *Graph) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph provenance {")
	fmt.Fprintln(bw, "  rankdir=TB;")
	fmt.Fprintln(bw, "  node [fontsize=9];")
	byRank := map[int][]Node{}
	var ranks []int
	for _, n := range g.Nodes {
		if _, ok := byRank[n.Rank]; !ok {
			ranks = append(ranks, n.Rank)
		}
		byRank[n.Rank] = append(byRank[n.Rank], n)
	}
	sort.Ints(ranks)
	shape := func(k string) string {
		switch k {
		case "injection":
			return "doubleoctagon"
		case "send", "recv":
			return "diamond"
		case "output":
			return "note"
		case "write":
			return "box"
		}
		return "ellipse"
	}
	for _, r := range ranks {
		fmt.Fprintf(bw, "  subgraph cluster_rank_%d {\n    label=\"rank %d\";\n", r, r)
		for _, n := range byRank[r] {
			label := fmt.Sprintf("%s\\neip=%#x instr=%d", n.Kind, n.EIP, n.InstrNum)
			if n.Label != "" {
				label += "\\n" + n.Label
			}
			fmt.Fprintf(bw, "    n%d [label=\"%s\" shape=%s];\n", n.ID, label, shape(n.Kind))
		}
		fmt.Fprintln(bw, "  }")
	}
	for _, e := range g.Edges {
		style := ""
		if e.Kind == "message" {
			style = " [style=dashed color=red constraint=false]"
		}
		fmt.Fprintf(bw, "  n%d -> n%d%s;\n", e.From, e.To, style)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
