// Package server implements chaserd, the crash-tolerant campaign control
// plane: an HTTP API that accepts experiment specs, splits each campaign
// into shards, persists every state transition in a checksummed
// write-ahead log, and schedules the shards across worker processes under
// expiring leases. Worker death, wedged workers, and chaserd restarts are
// routine, recoverable events: shards are re-enqueued with bounded retry
// and exponential backoff, resumed from their journals so no run executes
// twice in the merged summary, and quarantined when they poison every
// worker that touches them. Per-tenant namespaces carry quotas and
// token-bucket rate limits that degrade gracefully (HTTP 429 + Retry-After,
// mirroring the TaintHub's BusyError contract).
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"chaser/internal/apps"
	"chaser/internal/campaign"
)

// Spec is an experiment specification submitted to chaserd: one campaign
// against one registered application. The zero values of optional fields
// select defaults at submit time (see normalize).
type Spec struct {
	// Tenant is the namespace the campaign is accounted against (quotas,
	// rate limits). Empty selects "default".
	Tenant string `json:"tenant,omitempty"`
	// App names a registered guest application (apps.ByName).
	App string `json:"app"`
	// Runs is the number of injection runs.
	Runs int `json:"runs"`
	// Seed makes the campaign reproducible; together with App and Runs it
	// fully determines every run's injection point.
	Seed int64 `json:"seed"`
	// Bits is the number of bits flipped per injection (0 = 1).
	Bits int `json:"bits,omitempty"`
	// Shards is how many lease-scheduled slices the run index space is cut
	// into (0 = min(DefaultShards, Runs)).
	Shards int `json:"shards,omitempty"`
	// Trace enables propagation tracing on every run.
	Trace bool `json:"trace,omitempty"`
	// Parallel is the worker-process-local parallelism while executing one
	// shard (0 = GOMAXPROCS).
	Parallel int `json:"parallel,omitempty"`
	// RunTimeoutMs is the per-run wall-clock watchdog in milliseconds
	// (0 = none).
	RunTimeoutMs int64 `json:"run_timeout_ms,omitempty"`
}

// Decoder bounds. Submissions come from the network, so every dimension a
// spec can grow in is capped before any resource is committed to it.
const (
	// MaxSpecBytes caps one encoded spec (64 KiB is ~3 orders of magnitude
	// above any legitimate spec).
	MaxSpecBytes = 64 << 10
	// MaxRuns caps a single campaign's run count.
	MaxRuns = 1_000_000
	// MaxShards caps the shard fan-out of one campaign.
	MaxShards = 4096
	// MaxParallel caps per-shard worker parallelism.
	MaxParallel = 1024
	// MaxTenantLen caps the tenant name.
	MaxTenantLen = 64
	// DefaultShards is the shard count when the spec leaves it zero.
	DefaultShards = 4
)

// SpecSizeError reports a spec exceeding MaxSpecBytes (or the submitted
// limit). Mirrors the hub's FrameError: the payload is refused before it is
// fully buffered.
type SpecSizeError struct {
	Size  int // bytes seen before giving up (at least Limit+1)
	Limit int
}

func (e *SpecSizeError) Error() string {
	return fmt.Sprintf("server: spec over %d bytes (saw %d)", e.Limit, e.Size)
}

// SpecError reports a syntactically or semantically invalid spec. Field
// names the offending field ("json" for undecodable payloads).
type SpecError struct {
	Field  string
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("server: invalid spec: %s: %s", e.Field, e.Reason)
}

// DecodeSpec reads and validates one experiment spec from r, bounding the
// payload at limit bytes (<=0 selects MaxSpecBytes). It is the single entry
// point of the submission decoder — the FuzzDecodeSpec target guarantees
// malformed or oversized payloads surface as *SpecError / *SpecSizeError,
// never as a panic. App existence is not checked here (the registry is a
// submit-time concern); everything structural is.
func DecodeSpec(r io.Reader, limit int) (Spec, error) {
	if limit <= 0 {
		limit = MaxSpecBytes
	}
	raw, err := io.ReadAll(io.LimitReader(r, int64(limit)+1))
	if err != nil {
		return Spec{}, &SpecError{Field: "json", Reason: err.Error()}
	}
	if len(raw) > limit {
		return Spec{}, &SpecSizeError{Size: len(raw), Limit: limit}
	}
	var sp Spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return Spec{}, &SpecError{Field: "json", Reason: err.Error()}
	}
	if err := sp.validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// validate checks every structural bound. It never consults the app
// registry, so it is pure and fuzz-friendly.
func (sp Spec) validate() error {
	if sp.App == "" {
		return &SpecError{Field: "app", Reason: "required"}
	}
	if !wellFormedName(sp.App) {
		return &SpecError{Field: "app", Reason: "must be [a-z0-9_-], at most 64 chars"}
	}
	if sp.Tenant != "" && !wellFormedName(sp.Tenant) {
		return &SpecError{Field: "tenant", Reason: "must be [a-z0-9_-], at most 64 chars"}
	}
	if sp.Runs <= 0 || sp.Runs > MaxRuns {
		return &SpecError{Field: "runs", Reason: fmt.Sprintf("must be in [1, %d]", MaxRuns)}
	}
	if sp.Bits < 0 || sp.Bits > 64 {
		return &SpecError{Field: "bits", Reason: "must be in [0, 64]"}
	}
	if sp.Shards < 0 || sp.Shards > MaxShards {
		return &SpecError{Field: "shards", Reason: fmt.Sprintf("must be in [0, %d]", MaxShards)}
	}
	if sp.Parallel < 0 || sp.Parallel > MaxParallel {
		return &SpecError{Field: "parallel", Reason: fmt.Sprintf("must be in [0, %d]", MaxParallel)}
	}
	if sp.RunTimeoutMs < 0 {
		return &SpecError{Field: "run_timeout_ms", Reason: "must be >= 0"}
	}
	return nil
}

// wellFormedName bounds tenant and app names to a safe identifier charset
// (they appear in file paths and metrics).
func wellFormedName(s string) bool {
	if len(s) == 0 || len(s) > MaxTenantLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// normalize fills defaulted fields in, clamping the shard count to the run
// count so no shard is empty.
func (sp Spec) normalize() Spec {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if sp.Bits == 0 {
		sp.Bits = 1
	}
	if sp.Shards == 0 {
		sp.Shards = DefaultShards
	}
	if sp.Shards > sp.Runs {
		sp.Shards = sp.Runs
	}
	return sp
}

// shardRange returns shard i's half-open run window. Runs are split into
// near-equal contiguous slices; the first Runs%Shards shards take one extra.
func (sp Spec) shardRange(i int) (lo, hi int) {
	per, extra := sp.Runs/sp.Shards, sp.Runs%sp.Shards
	lo = i*per + min(i, extra)
	hi = lo + per
	if i < extra {
		hi++
	}
	return lo, hi
}

// campaignConfig translates a spec into the campaign configuration every
// shard worker and the merge step share. The translation must be
// deterministic: workers and the merging scheduler each rebuild it
// independently and their summaries must agree bitwise.
func campaignConfig(sp Spec, app apps.App, nsBase int) campaign.Config {
	return campaign.Config{
		Name:             app.Name,
		Prog:             app.Prog,
		WorldSize:        app.WorldSize,
		Ops:              app.DefaultOps,
		TargetRank:       app.TargetRank,
		Runs:             sp.Runs,
		Bits:             sp.Bits,
		Seed:             sp.Seed,
		Trace:            sp.Trace,
		Parallel:         sp.Parallel,
		RunTimeout:       time.Duration(sp.RunTimeoutMs) * time.Millisecond,
		HubNamespaceBase: nsBase,
	}
}
