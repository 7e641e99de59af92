package campaign

import (
	"encoding/json"

	"chaser/internal/stats"
)

// summaryJSON is the serialized form of a Summary, designed for external
// plotting/analysis tools.
type summaryJSON struct {
	Name     string `json:"name"`
	Runs     int    `json:"runs"`
	Injected int    `json:"injected"`

	Benign     int `json:"benign"`
	SDC        int `json:"sdc"`
	Detected   int `json:"detected"`
	Terminated int `json:"terminated"`

	TermOS      int `json:"term_os"`
	TermMPI     int `json:"term_mpi"`
	TermSlave   int `json:"term_slave"`
	TermHang    int `json:"term_hang"`
	TermTimeout int `json:"term_timeout"`

	SimCrash int `json:"sim_crash"`

	PropagatedRuns int `json:"propagated_runs"`
	PropSlaveOS    int `json:"prop_slave_os"`
	PropSlaveMPI   int `json:"prop_slave_mpi"`

	ReadOnlyRuns  int `json:"read_only_runs"`
	WriteOnlyRuns int `json:"write_only_runs"`
	ReadHeavyRuns int `json:"read_heavy_runs"`

	Reads  *histJSON `json:"tainted_reads,omitempty"`
	Writes *histJSON `json:"tainted_writes,omitempty"`
}

type histJSON struct {
	Total   uint64       `json:"total"`
	Mean    float64      `json:"mean"`
	Max     float64      `json:"max"`
	P50     float64      `json:"p50"`
	P95     float64      `json:"p95"`
	Buckets []bucketJSON `json:"buckets"`
}

type bucketJSON struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count uint64  `json:"count"`
}

// histToJSON encodes h; infinite bucket bounds become +/-1e308 (JSON has no
// infinity).
func histToJSON(h *stats.Histogram) *histJSON {
	if h == nil || h.Total() == 0 {
		return nil
	}
	out := &histJSON{
		Total: h.Total(),
		Mean:  h.Mean(),
		Max:   h.Max(),
		P50:   h.Quantile(0.5),
		P95:   h.Quantile(0.95),
	}
	for _, b := range h.Buckets() {
		out.Buckets = append(out.Buckets, bucketJSON{Lo: max(b.Lo, -1e308), Hi: min(b.Hi, 1e308), Count: b.Count})
	}
	return out
}

// MarshalJSON serializes the summary for external tools.
func (s *Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryJSON{
		Name: s.Name, Runs: s.Runs, Injected: s.Injected,
		Benign: s.Benign, SDC: s.SDC, Detected: s.Detected, Terminated: s.Terminated,
		TermOS: s.TermOS, TermMPI: s.TermMPI, TermSlave: s.TermSlave, TermHang: s.TermHang,
		TermTimeout: s.TermTimeout, SimCrash: s.SimCrash,
		PropagatedRuns: s.PropagatedRuns, PropSlaveOS: s.PropSlaveOS, PropSlaveMPI: s.PropSlaveMPI,
		ReadOnlyRuns: s.ReadOnlyRuns, WriteOnlyRuns: s.WriteOnlyRuns, ReadHeavyRuns: s.ReadHeavyRuns,
		Reads:  histToJSON(s.ReadsHist),
		Writes: histToJSON(s.WritesHist),
	})
}
