package campaign

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"chaser/internal/core"
	"chaser/internal/obs"
	"chaser/internal/trace"
)

// Observatory is the live campaign dashboard backend: it observes runs as
// they classify, retains a bounded set of provenance graphs (preferring the
// interesting runs — SDCs and cross-rank propagations), aggregates an
// opcode × injection-site heatmap, and serves everything over HTTP.
//
// Wiring: pass the Observatory's registry and sink to the campaign (or let
// Instrument do it), point Config.RunObserver at ObserveRun and chain
// Config.Progress through ObserveProgress, then mount the Observatory itself
// (it is an http.Handler) on a listener. Endpoints:
//
//	/              tiny HTML index linking everything below
//	/metrics       Prometheus text exposition of the registry
//	/progress      JSON: runs done/remaining, outcome taxonomy, heatmap
//	/runs          JSON: the retained runs and their provenance stats
//	/runs/<id>/provenance.json
//	/runs/<id>/provenance.dot
//	/events        event feed: JSON long-poll (?since=N&wait=5s) or SSE
//	               (Accept: text/event-stream, or ?stream=sse)
//
// All methods are safe for concurrent use; campaign workers call ObserveRun
// while HTTP handlers read.
type Observatory struct {
	reg       *obs.Registry
	sink      *obs.Sink
	maxGraphs int

	// done is closed by Shutdown; SSE streams and long-polls select on it so
	// a draining http.Server.Shutdown is never pinned by a live dashboard
	// client.
	done     chan struct{}
	downOnce sync.Once

	mu       sync.Mutex
	name     string
	total    int
	start    time.Time
	last     ProgressInfo
	finished bool
	observed int
	crashes  int
	terms    map[string]int
	heat     map[SiteKey]*SiteCell
	nextID   int
	runs     map[int]*runRecord
	order    []int // retained run IDs, oldest first (eviction order)
}

// DefaultMaxGraphs bounds the provenance graphs an Observatory retains.
const DefaultMaxGraphs = 64

// SiteKey identifies one injection site of the heatmap: the opcode the fault
// hit, on which rank, at which guest PC.
type SiteKey struct {
	App  string `json:"app"`
	Op   string `json:"op"`
	Rank int    `json:"rank"`
	PC   uint64 `json:"pc"`
}

// SiteCell tallies the outcomes of every observed run that injected at one
// site.
type SiteCell struct {
	Runs       int `json:"runs"`
	Benign     int `json:"benign"`
	SDC        int `json:"sdc"`
	Detected   int `json:"detected"`
	Terminated int `json:"terminated"`
	Propagated int `json:"propagated"`
}

// runRecord is one retained run with its provenance graph.
type runRecord struct {
	ID          int    `json:"id"`
	Campaign    string `json:"campaign"`
	Idx         int    `json:"idx"`
	Rank        int    `json:"rank"`
	Outcome     string `json:"outcome"`
	Term        string `json:"term,omitempty"`
	Op          string `json:"op,omitempty"`
	PC          uint64 `json:"pc,omitempty"`
	Propagated  bool   `json:"propagated"`
	Nodes       int    `json:"nodes"`
	CrossEdges  int    `json:"cross_rank_edges"`
	interesting bool
	graph       *trace.Graph
}

// NewObservatory creates an observatory around the given registry and event
// sink (either may be nil: the corresponding endpoints serve empty data).
// maxGraphs bounds the retained provenance graphs (<=0 selects
// DefaultMaxGraphs).
func NewObservatory(reg *obs.Registry, sink *obs.Sink, maxGraphs int) *Observatory {
	if maxGraphs <= 0 {
		maxGraphs = DefaultMaxGraphs
	}
	return &Observatory{
		reg: reg, sink: sink, maxGraphs: maxGraphs,
		done:  make(chan struct{}),
		terms: make(map[string]int),
		heat:  make(map[SiteKey]*SiteCell),
		runs:  make(map[int]*runRecord),
		start: time.Now(),
	}
}

// Shutdown tells every streaming handler (SSE, long-poll) to finish its
// response, so a subsequent http.Server.Shutdown drains instead of waiting
// out clients that would otherwise hold their connections open forever.
// Idempotent and safe to call concurrently with handlers.
func (o *Observatory) Shutdown() {
	o.downOnce.Do(func() { close(o.done) })
}

// Registry returns the observatory's metrics registry (may be nil).
func (o *Observatory) Registry() *obs.Registry { return o.reg }

// Sink returns the observatory's event sink (may be nil).
func (o *Observatory) Sink() *obs.Sink { return o.sink }

// Instrument wires the observatory into one campaign config: telemetry
// registry and event sink (unless the config brings its own), the run
// observer, and a progress hook chained before any existing one. It also
// registers the campaign's name and run count for /progress.
func (o *Observatory) Instrument(cfg Config) Config {
	if cfg.Obs == nil {
		cfg.Obs = o.reg
	}
	if cfg.Events == nil {
		cfg.Events = o.sink
	}
	prevProgress := cfg.Progress
	cfg.Progress = func(p ProgressInfo) {
		o.ObserveProgress(p)
		if prevProgress != nil {
			prevProgress(p)
		}
	}
	prevObserver := cfg.RunObserver
	cfg.RunObserver = func(idx, rank int, out RunOutcome, res *core.RunResult) {
		o.ObserveRun(cfg.Name, idx, rank, out, res)
		if prevObserver != nil {
			prevObserver(idx, rank, out, res)
		}
	}
	o.Begin(cfg.Name, cfg.Runs)
	return cfg
}

// Begin registers a campaign about to run. Aggregates (heatmap, retained
// runs) are cumulative across campaigns; only the name/total/progress state
// resets.
func (o *Observatory) Begin(name string, total int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.name = name
	o.total = total
	o.last = ProgressInfo{Total: total}
	o.finished = false
	o.start = time.Now()
}

// Finish marks the current campaign complete.
func (o *Observatory) Finish() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.finished = true
}

// ObserveProgress records a live progress snapshot (chain it into
// Config.Progress).
func (o *Observatory) ObserveProgress(p ProgressInfo) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.last = p
}

// ObserveRun ingests one classified run (wire it as Config.RunObserver,
// currying the campaign name). res is nil when the simulator crashed on the
// run; traced results with injection records feed the heatmap and — when the
// run is interesting or the store has room — the provenance graph store.
func (o *Observatory) ObserveRun(name string, idx, rank int, out RunOutcome, res *core.RunResult) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.observed++
	switch out.Outcome {
	case OutcomeSimCrash:
		o.crashes++
	case OutcomeTerminated:
		o.terms[out.Term.String()]++
	}
	rec := &runRecord{
		Campaign: name, Idx: idx, Rank: rank,
		Outcome:    out.Outcome.String(),
		Propagated: out.Propagated,
	}
	if out.Outcome == OutcomeTerminated {
		rec.Term = out.Term.String()
	}
	if len(out.Records) > 0 {
		r0 := out.Records[0]
		rec.Op, rec.PC = r0.GuestOpS, r0.PC
		k := SiteKey{App: name, Op: r0.GuestOpS, Rank: r0.Rank, PC: r0.PC}
		c := o.heat[k]
		if c == nil {
			c = &SiteCell{}
			o.heat[k] = c
		}
		c.Runs++
		switch out.Outcome {
		case OutcomeBenign:
			c.Benign++
		case OutcomeSDC:
			c.SDC++
		case OutcomeDetected:
			c.Detected++
		case OutcomeTerminated:
			c.Terminated++
		}
		if out.Propagated {
			c.Propagated++
		}
	}
	if res == nil || res.Trace == nil || len(res.Records) == 0 {
		return
	}
	rec.interesting = out.Outcome == OutcomeSDC || out.Propagated
	if len(o.order) >= o.maxGraphs && !rec.interesting {
		// The store is full and this run is routine; building its graph
		// would be wasted work.
		if !o.hasEvictable() {
			return
		}
	}
	g := res.Provenance()
	rec.Nodes, rec.CrossEdges = len(g.Nodes), g.CrossRankEdges
	rec.graph = g
	o.retain(rec)
}

// hasEvictable reports whether a routine retained run exists to evict.
// Callers hold o.mu.
func (o *Observatory) hasEvictable() bool {
	for _, id := range o.order {
		if !o.runs[id].interesting {
			return true
		}
	}
	return false
}

// retain stores one run's graph, evicting the oldest routine run when full
// (the oldest interesting one when everything retained is interesting).
// Callers hold o.mu.
func (o *Observatory) retain(rec *runRecord) {
	if len(o.order) >= o.maxGraphs {
		evict := -1
		for i, id := range o.order {
			if !o.runs[id].interesting {
				evict = i
				break
			}
		}
		if evict == -1 {
			if !rec.interesting {
				return
			}
			evict = 0
		}
		delete(o.runs, o.order[evict])
		o.order = append(o.order[:evict], o.order[evict+1:]...)
	}
	rec.ID = o.nextID
	o.nextID++
	o.runs[rec.ID] = rec
	o.order = append(o.order, rec.ID)
}

// HeatEntry is one row of the /progress heatmap.
type HeatEntry struct {
	SiteKey
	SiteCell
}

// Snapshot is the /progress payload.
type Snapshot struct {
	Name       string  `json:"name"`
	Total      int     `json:"total"`
	Done       int     `json:"done"`
	Remaining  int     `json:"remaining"`
	ElapsedSec float64 `json:"elapsed_sec"`
	RunsPerSec float64 `json:"runs_per_sec"`
	Finished   bool    `json:"finished"`

	// Outcome taxonomy of the current campaign (includes resumed runs).
	Outcomes map[string]int `json:"outcomes"`
	// Terminations breaks terminated runs down (observed runs, cumulative).
	Terminations map[string]int `json:"terminations"`
	SimCrashes   int            `json:"sim_crashes"`

	EventsEmitted uint64 `json:"events_emitted"`
	EventsDropped uint64 `json:"events_dropped"`

	Heatmap      []HeatEntry `json:"heatmap"`
	RetainedRuns int         `json:"retained_runs"`

	// Fork reports the checkpoint ladder's activity (zero-valued when the
	// campaign runs with NoFork).
	Fork ForkStats `json:"fork"`
}

// ForkStats is the checkpoint-ladder section of /progress, read from the
// metrics registry.
type ForkStats struct {
	// PrefixRuns counts prefix executions: one per rung, each from the rung
	// before it (or from program entry for the first of a rank).
	PrefixRuns uint64 `json:"prefix_runs"`
	// ForkedRuns counts injection runs resumed from a snapshot instead of
	// replaying the prefix.
	ForkedRuns uint64 `json:"forked_runs"`
	// CacheHits/CacheMisses count the tasks' lookups: a hit found a resident
	// snapshot at or below the task's site, a miss had the golden prefix
	// replayed from program entry.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// CacheBytes is the resident snapshot-cache size; CacheHighWater its
	// peak.
	CacheBytes     int64 `json:"cache_bytes"`
	CacheHighWater int64 `json:"cache_high_water_bytes"`
}

// Snapshot assembles the current /progress payload.
func (o *Observatory) Snapshot() Snapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	p := o.last
	elapsed := p.Elapsed
	if elapsed == 0 {
		elapsed = time.Since(o.start)
	}
	s := Snapshot{
		Name:       o.name,
		Total:      o.total,
		Done:       p.Done,
		Remaining:  o.total - p.Done,
		ElapsedSec: elapsed.Seconds(),
		RunsPerSec: p.RunsPerSec,
		Finished:   o.finished,
		Outcomes: map[string]int{
			"benign":     p.Benign,
			"sdc":        p.SDC,
			"detected":   p.Detected,
			"terminated": p.Terminated,
		},
		Terminations:  make(map[string]int, len(o.terms)),
		SimCrashes:    o.crashes,
		EventsEmitted: o.sink.Len(),
		EventsDropped: o.sink.Dropped(),
		Heatmap:       make([]HeatEntry, 0, len(o.heat)),
		RetainedRuns:  len(o.runs),
		Fork: ForkStats{
			PrefixRuns:     o.reg.Counter("campaign_prefix_runs_total").Value(),
			ForkedRuns:     o.reg.Counter("campaign_forked_runs_total").Value(),
			CacheHits:      o.reg.Counter("campaign_snapshot_cache_hits_total").Value(),
			CacheMisses:    o.reg.Counter("campaign_snapshot_cache_misses_total").Value(),
			CacheBytes:     int64(o.reg.Gauge("campaign_snapshot_cache_bytes").Value()),
			CacheHighWater: int64(o.reg.Gauge("campaign_snapshot_cache_bytes_high_water").Value()),
		},
	}
	for k, v := range o.terms {
		s.Terminations[k] = v
	}
	for k, c := range o.heat {
		s.Heatmap = append(s.Heatmap, HeatEntry{SiteKey: k, SiteCell: *c})
	}
	sort.Slice(s.Heatmap, func(i, j int) bool {
		a, b := s.Heatmap[i], s.Heatmap[j]
		if a.Runs != b.Runs {
			return a.Runs > b.Runs
		}
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.PC < b.PC
	})
	return s
}

// ServeHTTP implements the dashboard. Mount the observatory on a listener
// (http.ListenAndServe(addr, o)) or under a mux of your own.
func (o *Observatory) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/":
		o.handleIndex(w, r)
	case r.URL.Path == "/metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		o.reg.WritePrometheus(w)
	case r.URL.Path == "/progress":
		writeJSON(w, o.Snapshot())
	case r.URL.Path == "/runs":
		o.handleRuns(w, r)
	case strings.HasPrefix(r.URL.Path, "/runs/"):
		o.handleRun(w, r)
	case r.URL.Path == "/events":
		o.handleEvents(w, r)
	default:
		http.NotFound(w, r)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (o *Observatory) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	o.mu.Lock()
	name := o.name
	o.mu.Unlock()
	fmt.Fprintf(w, `<!DOCTYPE html>
<title>chaser campaign observatory</title>
<h1>campaign observatory — %s</h1>
<ul>
<li><a href="/progress">/progress</a> — runs done/remaining, outcome taxonomy, injection-site heatmap</li>
<li><a href="/metrics">/metrics</a> — Prometheus metrics</li>
<li><a href="/runs">/runs</a> — retained runs (provenance at /runs/&lt;id&gt;/provenance.{json,dot})</li>
<li><a href="/events">/events</a> — event feed (?since=N&amp;wait=5s long-poll, ?stream=sse)</li>
</ul>
`, name)
}

func (o *Observatory) handleRuns(w http.ResponseWriter, _ *http.Request) {
	o.mu.Lock()
	list := make([]*runRecord, 0, len(o.order))
	for _, id := range o.order {
		list = append(list, o.runs[id])
	}
	o.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	writeJSON(w, map[string]any{"runs": list})
}

func (o *Observatory) handleRun(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/runs/"), "/")
	if len(parts) != 2 {
		http.NotFound(w, r)
		return
	}
	id, err := strconv.Atoi(parts[0])
	if err != nil {
		http.NotFound(w, r)
		return
	}
	o.mu.Lock()
	rec := o.runs[id]
	o.mu.Unlock()
	if rec == nil || rec.graph == nil {
		http.NotFound(w, r)
		return
	}
	// The graph is immutable once built, so serving outside the lock is safe.
	switch parts[1] {
	case "provenance.json":
		w.Header().Set("Content-Type", "application/json")
		rec.graph.WriteJSON(w)
	case "provenance.dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		rec.graph.WriteDOT(w)
	default:
		http.NotFound(w, r)
	}
}

// maxEventWait caps the /events long-poll duration so an abandoned poller
// cannot pin a handler goroutine for long.
const maxEventWait = 30 * time.Second

func (o *Observatory) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since, _ := strconv.ParseUint(q.Get("since"), 10, 64)
	if q.Get("stream") == "sse" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		o.serveSSE(w, r, since)
		return
	}
	var wait time.Duration
	if s := q.Get("wait"); s != "" {
		wait, _ = time.ParseDuration(s)
		if wait > maxEventWait {
			wait = maxEventWait
		}
	}
	var evs []obs.Event
	var next uint64
	if wait > 0 {
		evs, next = o.waitEvents(r, since, 1024, wait)
	} else {
		evs, next = o.sink.Since(since, 1024)
	}
	if evs == nil {
		evs = []obs.Event{}
	}
	writeJSON(w, map[string]any{
		"events":  evs,
		"next":    next,
		"dropped": o.sink.Dropped(),
	})
}

// waitEvents is a drainable WaitSince: it waits up to `wait` for events past
// seq, but returns early when the request is cancelled or the observatory
// shuts down, so long-polls cannot pin a draining server for the full wait.
func (o *Observatory) waitEvents(r *http.Request, seq uint64, max int, wait time.Duration) ([]obs.Event, uint64) {
	deadline := time.Now().Add(wait)
	for {
		slice := time.Until(deadline)
		if slice <= 0 {
			return o.sink.Since(seq, max)
		}
		if slice > 250*time.Millisecond {
			slice = 250 * time.Millisecond
		}
		evs, next := o.sink.WaitSince(seq, max, slice)
		if len(evs) > 0 {
			return evs, next
		}
		select {
		case <-o.done:
			return evs, next
		case <-r.Context().Done():
			return evs, next
		default:
		}
	}
}

// serveSSE streams events as server-sent events until the client
// disconnects or the observatory shuts down.
func (o *Observatory) serveSSE(w http.ResponseWriter, r *http.Request, since uint64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	seq := since
	for {
		// The one-second timeout doubles as the disconnect-check interval:
		// a dead sink (nil) degrades to an idle poller, see obs.WaitSince.
		evs, next := o.sink.WaitSince(seq, 256, time.Second)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "data: %s\n\n", data)
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		seq = next
		select {
		case <-o.done:
			// Shutdown: finish the stream so the server can drain.
			return
		case <-r.Context().Done():
			return
		default:
		}
	}
}
