package dynserve

import (
	"encoding/json"
	"net/http"

	"repro/dynmon"
)

// ensembleCacheKey namespaces ensemble digests in the shared result cache:
// ensemble reports and single-run results have different shapes, so they
// must never answer for one another even if their digests ever collided.
func ensembleCacheKey(digest string) string { return "ensemble:" + digest }

// handleEnsemble is POST /v1/ensembles: submit a dynmon.EnsembleSpec (one
// system, a base initial family and run spec, N replicas per point of an
// optional parameter sweep) and answer with the aggregated
// dynmon.EnsembleReport — takeover probability with 95% Wilson intervals
// and rounds-to-takeover quantiles per sweep point.
//
// Reports are cached by ensemble spec digest.  The report is a pure
// function of the spec — replica seeds are derived, counter-based, and the
// aggregation is completion-order independent — so a cached answer is
// byte-identical to a fresh run and the endpoint is safe to retry.  A
// cached answer costs no worker slot; a miss occupies one admission slot
// (like /v1/batch: the ensemble, not the replica, is the admission unit)
// and runs every sweep point at once on one pool bounded by the server's
// worker budget: 64-replica tiles of deterministic points on the
// bit-sliced tier, stochastic replicas one by one, each replica kept only
// as its outcome record.  A spec of more runs than an ensemble may hold
// (dynmon.ErrEnsembleTooLarge) answers 422 before admission.
func (s *Server) handleEnsemble(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	es, err := dynmon.ParseEnsembleSpec(body)
	if err != nil {
		httpError(w, parseStatus(err), err.Error())
		return
	}
	ens, err := dynmon.NewEnsemble(es, s.cfg.Workers)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	digest := ens.Digest()

	type ensembleResponse struct {
		Digest string          `json:"digest"`
		Cached bool            `json:"cached"`
		Report json.RawMessage `json:"report"`
	}
	if v, ok := s.results.Get(ensembleCacheKey(digest)); ok {
		s.metrics.CacheHits.Add(1)
		writeJSON(w, http.StatusOK, ensembleResponse{Digest: digest, Cached: true, Report: v.(*cachedResult).json})
		return
	}
	s.metrics.CacheMisses.Add(1)

	release, err := s.acquire(r.Context())
	if err != nil {
		s.admissionError(w, err)
		return
	}
	defer release()
	ctx, cancel := s.runContext(r.Context())
	defer cancel()

	s.metrics.RunsStarted.Add(1)
	report, err := ens.Run(ctx)
	if err != nil {
		s.metrics.RunsFailed.Add(1)
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.metrics.RunsCompleted.Add(1)
	b, err := json.Marshal(report)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.results.Put(ensembleCacheKey(digest), &cachedResult{json: b})
	writeJSON(w, http.StatusOK, ensembleResponse{Digest: digest, Report: b})
}
