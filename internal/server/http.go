package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// HTTP surface of the control plane:
//
//	POST /api/v1/campaigns                     submit a spec    -> {"id": ...}
//	GET  /api/v1/campaigns[?tenant=T]          list statuses
//	GET  /api/v1/campaigns/{id}                one status
//	GET  /api/v1/campaigns/{id}/summary[?wait=30s]  merged summary (long-poll)
//	POST /api/v1/leases                        claim a shard    -> Assignment | 204
//	POST /api/v1/leases/{token}/heartbeat      extend the lease
//	POST /api/v1/leases/{token}/complete       report success
//	POST /api/v1/leases/{token}/fail           report failure   {"reason": ...}
//	GET  /metrics                              Prometheus text
//	GET  /healthz                              liveness + role + epoch
//
// Admission-control rejections surface as 429 + Retry-After (the hub's
// BusyError contract over HTTP); unknown leases as 404 so a worker can
// distinguish "abandon the shard" from transient transport errors.
//
// In HA mode only the leader serves the API. A follower answers every
// /api/v1/* call with a 307 redirect to the leader the fence names, plus
// Retry-After, so clients and workers rediscover the leader without
// configuration; when no leader is known, it answers 503 + Retry-After and
// the client's failover retry does the rest. Every response carries
// X-Chaser-Epoch.

// httpError is the JSON error envelope.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	if errors.Is(err, ErrFenced) {
		status = http.StatusServiceUnavailable // refused unwritten: try the other peer
	}
	writeJSON(w, status, httpError{Error: err.Error()})
}

// schedOr503 fetches the live scheduler, answering 503 + Retry-After when
// this node has none (a demotion landed between the role middleware and the
// handler body). Callers must return immediately on nil.
func (s *Server) schedOr503(w http.ResponseWriter) *Scheduler {
	sched := s.currentSched()
	if sched == nil {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, errNotLeader)
	}
	return sched
}

// handler builds the API mux over a scheduler, tenant table and store,
// wrapped in the role middleware that keeps follower nodes honest.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/campaigns", s.handleCampaigns)
	mux.HandleFunc("/api/v1/campaigns/", s.handleCampaign)
	mux.HandleFunc("/api/v1/leases", s.handleLeases)
	mux.HandleFunc("/api/v1/leases/", s.handleLease)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		role := "follower"
		if s.IsLeader() {
			role = "leader"
		}
		fmt.Fprintf(w, "ok role=%s epoch=%d\n", role, s.currentEpoch())
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Chaser-Epoch", strconv.FormatUint(s.currentEpoch(), 10))
		switch r.URL.Path {
		case "/metrics", "/healthz":
			mux.ServeHTTP(w, r)
			return
		}
		if s.IsLeader() {
			mux.ServeHTTP(w, r)
			return
		}
		// Follower: never serve state; redirect to the leader.
		leader := s.leaderHint()
		if leader == "" || leader == s.Advertise() {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, errNotLeader)
			return
		}
		w.Header().Set("Retry-After", "1")
		http.Redirect(w, r, leader+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	})
}

// handleCampaigns serves POST (submit) and GET (list) on /api/v1/campaigns.
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		sched := s.schedOr503(w)
		if sched == nil {
			return
		}
		writeJSON(w, http.StatusOK, sched.List(r.URL.Query().Get("tenant")))
	default:
		w.Header().Set("Allow", "GET, POST")
		writeErr(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sp, err := DecodeSpec(r.Body, MaxSpecBytes)
	if err != nil {
		var sizeErr *SpecSizeError
		if errors.As(err, &sizeErr) {
			writeErr(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sp = sp.normalize()
	if err := s.tenants.Admit(sp.Tenant); err != nil {
		var thr *ThrottleError
		var quo *QuotaError
		var retryAfter time.Duration
		switch {
		case errors.As(err, &thr):
			retryAfter = thr.RetryAfter
			s.reg.Counter("server_throttled_total").Inc()
		case errors.As(err, &quo):
			retryAfter = quo.RetryAfter
			s.reg.Counter("server_quota_rejected_total").Inc()
		default:
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
		writeErr(w, http.StatusTooManyRequests, err)
		return
	}
	sched := s.schedOr503(w)
	if sched == nil {
		s.tenants.Release(sp.Tenant)
		return
	}
	id, err := sched.Submit(sp)
	if err != nil {
		s.tenants.Release(sp.Tenant) // the admitted slot was never used
		var specErr *SpecError
		if errors.As(err, &specErr) {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

// handleCampaign serves /api/v1/campaigns/{id} and .../{id}/summary.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeErr(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/campaigns/")
	id, sub, _ := strings.Cut(rest, "/")
	sched := s.schedOr503(w)
	if sched == nil {
		return
	}
	st := sched.Status(id)
	if st == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", id))
		return
	}
	switch sub {
	case "":
		writeJSON(w, http.StatusOK, st)
	case "summary":
		s.handleSummary(w, r, id)
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown resource %q", sub))
	}
}

// handleSummary serves the merged summary, optionally long-polling until
// the campaign reaches a terminal state (?wait=30s, capped at 60s so a
// watch client re-polls rather than pinning a connection forever).
func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request, id string) {
	sched := s.schedOr503(w)
	if sched == nil {
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad wait %q: %v", waitStr, err))
			return
		}
		if wait > time.Minute {
			wait = time.Minute
		}
		done := sched.Done(id)
		if done != nil && wait > 0 {
			select {
			case <-done:
			case <-time.After(wait):
			case <-r.Context().Done():
				return
			}
		}
	}
	st := sched.Status(id)
	if st == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", id))
		return
	}
	switch st.Status {
	case StatusFailed:
		writeJSON(w, http.StatusConflict, httpError{Error: "campaign failed: " + st.Err})
	case StatusComplete:
		raw, err := sched.store.ReadSummary(id)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		if raw == nil {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("summary for %s missing from store", id))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	default:
		// Not done yet (long-poll timed out or wasn't requested).
		w.Header().Set("Retry-After", "2")
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleLeases serves POST /api/v1/leases (claim). 204 means no work.
func (s *Server) handleLeases(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeErr(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
		return
	}
	var req struct {
		Worker string `json:"worker"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad claim request: %v", err))
		return
	}
	sched := s.schedOr503(w)
	if sched == nil {
		return
	}
	a, err := sched.Claim(req.Worker)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if a == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, a)
}

// handleLease serves POST /api/v1/leases/{token}/{heartbeat|complete|fail}.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeErr(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/leases/")
	token, verb, ok := strings.Cut(rest, "/")
	if !ok || token == "" {
		writeErr(w, http.StatusNotFound, errors.New("expected /api/v1/leases/{token}/{verb}"))
		return
	}
	sched := s.schedOr503(w)
	if sched == nil {
		return
	}
	var err error
	switch verb {
	case "heartbeat":
		err = sched.Heartbeat(token)
	case "complete":
		err = sched.Complete(token)
	case "fail":
		var req struct {
			Reason string `json:"reason"`
		}
		if derr := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<10)).Decode(&req); derr != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad fail request: %v", derr))
			return
		}
		err = sched.Fail(token, req.Reason)
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown lease verb %q", verb))
		return
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	case errors.Is(err, ErrLeaseUnknown):
		writeErr(w, http.StatusNotFound, err)
	default:
		writeErr(w, http.StatusInternalServerError, err)
	}
}
