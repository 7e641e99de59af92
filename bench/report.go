package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// setOpts describes one set of repetitions: for each workload, reps untraced
// repetitions on seeds seed, seed+1, ... (the driver's way: the spread then
// includes what the seed changes) and one traced repetition on seed.
type setOpts struct {
	workloads []workload
	sz        sizes
	seed      int64
	seconds   float64
	reps      int
	workdir   string
	traceOut  string // "" or a path; the workload's name is inserted before its extension
}

// workloadSet is one workload's part of a set.
type workloadSet struct {
	name   string
	reps   []*result // untraced
	traced *result
}

func traceOutFor(path, workload string) string {
	if path == "" {
		return ""
	}
	if i := strings.LastIndexByte(path, '.'); i > strings.LastIndexByte(path, '/') {
		return path[:i] + "." + workload + path[i:]
	}
	return path + "." + workload
}

func runSet(launch launcher, o setOpts, log io.Writer) ([]workloadSet, error) {
	var out []workloadSet
	for _, w := range o.workloads {
		ws := workloadSet{name: w.name}
		spec := runSpec{workload: w, sz: o.sz, seconds: o.seconds, workdir: o.workdir}
		for r := 0; r < o.reps; r++ {
			spec.seed = o.seed + int64(r)
			res, err := runOnce(launch, spec)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "%s: repetition %d/%d (seed %d): report_s %.4f, %.1f runs/s\n",
				w.name, r+1, o.reps, spec.seed, res.Metrics["report_s"], res.Metrics["runs_per_s"])
			ws.reps = append(ws.reps, res)
		}
		spec.seed, spec.traced, spec.traceOut = o.seed, true, traceOutFor(o.traceOut, w.name)
		res, err := runOnce(launch, spec)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "%s: traced repetition (seed %d): tracing overhead %.1f%%\n",
			w.name, spec.seed, res.Metrics["bench.tracing_overhead_pct"])
		ws.traced = res
		out = append(out, ws)
	}
	return out, nil
}

// values returns the metric's value in every untraced repetition.
func (ws workloadSet) values(metric string) []float64 {
	out := make([]float64, len(ws.reps))
	for i, r := range ws.reps {
		out[i] = r.Metrics[metric]
	}
	return out
}

func (ws workloadSet) attempted() (attempted, failed int) {
	for _, r := range append(ws.reps, ws.traced) {
		attempted += r.Attempted
		failed += r.Failed
	}
	return attempted, failed
}

// exactFor reports whether the metric is compared for equality on the
// workload: a count marked exact, on a workload of serial guests.
func exactFor(m metricDef, w workload) bool { return m.Exact && !w.ranked }

// writeJSON prints the set with every metric by name, unit and sample count.
func writeJSON(w io.Writer, o setOpts, set []workloadSet) error {
	type e2e struct {
		Value   float64   `json:"value"` // median over the repetitions
		Unit    string    `json:"unit"`
		Samples int       `json:"samples"`            // repetitions
		Within  int       `json:"samples_within_rep"` // samples each repetition's value is over
		Spread  float64   `json:"quartile_spread"`    // (q3-q1)/median over the repetitions
		Bound   float64   `json:"bound"`
		Values  []float64 `json:"values"`
	}
	type layer struct {
		Value      float64 `json:"value"`
		Unit       string  `json:"unit"`
		Exact      bool    `json:"exact,omitempty"`
		Percentile float64 `json:"percentile,omitempty"` // what a tail metric really reports
	}
	type entry struct {
		Name        string           `json:"name"`
		Attempted   int              `json:"attempted"`
		Failed      int              `json:"failed"`
		FailedShare float64          `json:"failed_share"`
		EndToEnd    map[string]e2e   `json:"end_to_end"`
		PerLayer    map[string]layer `json:"per_layer"`
		SelfTime    []layerRow       `json:"self_time"`
	}
	doc := struct {
		Seed      int64   `json:"seed"`
		Seconds   float64 `json:"seconds"`
		Reps      int     `json:"reps"`
		Workloads []entry `json:"workloads"`
	}{Seed: o.seed, Seconds: o.seconds, Reps: o.reps}
	for i, ws := range set {
		en := entry{Name: ws.name, EndToEnd: map[string]e2e{}, PerLayer: map[string]layer{}, SelfTime: ws.traced.SelfTime}
		en.Attempted, en.Failed = ws.attempted()
		en.FailedShare = float64(en.Failed) / float64(en.Attempted)
		for _, m := range endToEnd {
			vs := ws.values(m.Name)
			en.EndToEnd[m.Name] = e2e{
				Value: median(vs), Unit: m.Unit, Samples: len(vs), Within: ws.reps[0].Samples[m.Name],
				Spread: spread(vs), Bound: m.Bound, Values: vs,
			}
		}
		for _, m := range perLayer {
			en.PerLayer[m.Name] = layer{
				Value: ws.traced.Metrics[m.Name], Unit: m.Unit,
				Exact: exactFor(m, o.workloads[i]), Percentile: ws.traced.Tails[m.Name],
			}
		}
		doc.Workloads = append(doc.Workloads, en)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// writeTables prints the set for a reader: end-to-end medians with their
// spread, then what the traced repetition gave.
func writeTables(w io.Writer, set []workloadSet) {
	for _, ws := range set {
		attempted, failed := ws.attempted()
		fmt.Fprintf(w, "\n== %s: %d operations attempted, %d failed ==\n", ws.name, attempted, failed)
		fmt.Fprintf(w, "%-18s %14s %-6s %8s %8s %6s\n", "end to end", "median", "unit", "spread", "bound", "reps")
		for _, m := range endToEnd {
			vs := ws.values(m.Name)
			fmt.Fprintf(w, "%-18s %14.6g %-6s %7.1f%% %7.0f%% %6d\n", m.Name, median(vs), m.Unit, spread(vs)*100, m.Bound*100, len(vs))
		}
		writeTraced(w, ws.traced)
	}
}

// writeTraced prints a traced repetition: the self-time table and the
// per-layer metrics.
func writeTraced(w io.Writer, res *result) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s   (%s, traced)\n", "self time by span", "count", "total s", "self s", res.Workload)
	for _, row := range res.SelfTime {
		fmt.Fprintf(w, "%-24s %8d %12.4f %12.4f\n", row.Name, row.Count, row.TotalS, row.SelfS)
	}
	fmt.Fprintf(w, "%-32s %16s %s\n", "per layer", "value", "unit")
	for _, m := range perLayer {
		note := ""
		if p := res.Tails[m.Name]; p != 0 {
			note = fmt.Sprintf("  (p%.0f)", p*100)
		}
		fmt.Fprintf(w, "%-32s %16.6g %s%s\n", m.Name, res.Metrics[m.Name], m.Unit, note)
	}
}

// compareSets is -check: two sets of the same build must agree. It prints
// both medians and both quartile spreads of every end-to-end metric, so the
// bound can be judged against the noise, and returns what disagrees: a
// median that moved by more than the metric's bound, or an exact count that
// moved at all.
func compareSets(w io.Writer, workloads []workload, a, b []workloadSet) []string {
	var bad []string
	for i := range a {
		fmt.Fprintf(w, "\n== %s ==\n", a[i].name)
		fmt.Fprintf(w, "%-18s %-6s %14s %8s %14s %8s %8s %8s\n", "metric", "unit", "median A", "spread", "median B", "spread", "moved", "bound")
		for _, m := range endToEnd {
			va, vb := a[i].values(m.Name), b[i].values(m.Name)
			ma, mb := median(va), median(vb)
			moved := math.Abs(mb-ma) / math.Abs(ma)
			verdict := ""
			if moved > m.Bound {
				verdict = "  DISAGREES"
				bad = append(bad, fmt.Sprintf("%s %s: medians %g and %g differ by %.1f%%, bound %.0f%%", a[i].name, m.Name, ma, mb, moved*100, m.Bound*100))
			}
			fmt.Fprintf(w, "%-18s %-6s %14.6g %7.1f%% %14.6g %7.1f%% %7.1f%% %7.0f%%%s\n",
				m.Name, m.Unit, ma, spread(va)*100, mb, spread(vb)*100, moved*100, m.Bound*100, verdict)
		}
		for _, m := range perLayer {
			if !exactFor(m, workloads[i]) {
				continue
			}
			ca, cb := a[i].traced.Metrics[m.Name], b[i].traced.Metrics[m.Name]
			verdict := "equal"
			if ca != cb {
				verdict = "DIFFERS"
				bad = append(bad, fmt.Sprintf("%s %s: exact count %v became %v", a[i].name, m.Name, ca, cb))
			}
			fmt.Fprintf(w, "%-32s %18.6f %18.6f  %s\n", m.Name, ca, cb, verdict)
		}
	}
	return bad
}
