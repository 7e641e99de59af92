package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one campaign share its id; a shard span
// carries the shard index too.
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"` // 0 = root
	Name     string        `json:"name"`   // "<layer>.<operation>"
	Start    time.Duration `json:"start"`
	End      time.Duration `json:"end"`
	Campaign string        `json:"campaign,omitempty"`
	Shard    int           `json:"shard"` // -1 when the span is not a shard's
	Lane     int           `json:"lane"`  // trace swimlane: submitter or worker index
}

// recorder keeps spans in memory until the repetition ends. A nil recorder
// is the untraced path: every method is a no-op.
type recorder struct {
	t0 time.Time

	mu        sync.Mutex
	spans     []span
	campaigns map[string]int // campaign id -> its container span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), campaigns: make(map[string]int)}
}

// begin opens a span and returns its id (0 from a nil recorder).
func (r *recorder) begin(name string, parent int, campaign string, shard, lane int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Start: now, End: -1,
		Campaign: campaign, Shard: shard, Lane: lane,
	})
	return id
}

// end closes span id and returns how long it was open.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// bindCampaign names span id as the container that the campaign's
// worker-side spans (claims, shards, completes) hang under. Workers can claim
// a shard before the submitter learns the campaign's id, so those spans are
// linked to the container when the spans are read out, not when they open.
func (r *recorder) bindCampaign(campaign string, id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.campaigns[campaign] = id
	r.mu.Unlock()
}

// relabel sets what only the call's result tells: a claim's campaign and
// shard, or that it came back idle.
func (r *recorder) relabel(id int, name, campaign string, shard int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	s := &r.spans[id-1]
	s.Name, s.Campaign, s.Shard = name, campaign, shard
	r.mu.Unlock()
}

// closed returns the finished spans, worker-side spans linked to their
// campaign's container.
func (r *recorder) closed() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End < s.Start {
			continue
		}
		if box := r.campaigns[s.Campaign]; s.Parent == 0 && box != 0 && box != s.ID {
			s.Parent = box
		}
		out = append(out, s)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (two workers run shards of one campaign at once) and may stick out of the
// parent (a worker reports completion after the submitter already has the
// summary), so the children's intervals are clipped to the parent and merged
// before they are subtracted.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already accounted
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimeTable sums duration and self time by span name, largest self time
// first.
func selfTimeTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := make(map[string]*layerRow)
	for _, s := range spans {
		row := byName[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.TotalS += (s.End - s.Start).Seconds()
		row.SelfS += self[s.ID].Seconds()
	}
	rows := make([]layerRow, 0, len(byName))
	for _, row := range byName {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfS != rows[j].SelfS {
			return rows[i].SelfS > rows[j].SelfS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// containerSpans only group other spans; time left in them is time no layer
// call accounts for (queueing, long-poll wake-up, the loop itself).
var containerSpans = map[string]bool{
	"bench.round":         true,
	"server.wait_summary": true,
}

// attributedShare is the share of the rounds' wall clock that some layer
// span covers: one minus the containers' self time over the rounds' time.
func attributedShare(rows []layerRow) float64 {
	var rounds, unattributed float64
	for _, row := range rows {
		if row.Name == "bench.round" {
			rounds = row.TotalS
		}
		if containerSpans[row.Name] {
			unattributed += row.SelfS
		}
	}
	if rounds == 0 {
		return 0
	}
	return 1 - unattributed/rounds
}

// writeChromeTrace writes spans in the Chrome trace-event object format
// internal/obs exports, so a benchmark trace loads beside a program trace at
// chrome://tracing or ui.perfetto.dev. The benchmark's events use pid 2
// (obs uses 1) to keep the two apart when merged.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name  string            `json:"name"`
		Cat   string            `json:"cat"`
		Phase string            `json:"ph"`
		TS    float64           `json:"ts"`
		Dur   float64           `json:"dur"`
		PID   int               `json:"pid"`
		TID   int               `json:"tid"`
		Args  map[string]string `json:"args,omitempty"`
	}
	micros := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	out := struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{TraceEvents: []event{}, DisplayTimeUnit: "ms"}
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		ev := event{
			Name: s.Name, Cat: layer, Phase: "X", PID: 2, TID: s.Lane,
			TS: micros(s.Start), Dur: micros(s.End - s.Start),
		}
		if s.Campaign != "" {
			ev.Args = map[string]string{"campaign": s.Campaign}
			if s.Shard >= 0 {
				ev.Args["shard"] = strconv.Itoa(s.Shard)
			}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	return bw.Flush()
}
