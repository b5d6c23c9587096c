package dynserve

import (
	"encoding/json"
	"net/http"

	"repro/dynmon"
)

// batchItem is one entry of the /v1/batch response: the item's content
// address (equal to the digest of the equivalent single-run spec file),
// whether the result came from the cache, and the Result's exact JSON
// bytes — the same bytes POST /v1/runs answers with for that spec.
type batchItem struct {
	Digest string          `json:"digest"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// handleBatch is POST /v1/batch: submit a dynmon.BatchSpec (one system +
// run section, many initial items) and answer with one Result per item, in
// item order, keyed by per-item digest.  Items share the /v1/runs result
// cache: each item's digest is exactly the digest of the single-run spec
// file it denotes, so previously submitted runs answer from cache and the
// batch's misses warm the cache for later single-run submissions.  A fully
// cached batch costs no worker slot; otherwise the batch occupies one
// admission slot and runs its misses over a shared Session, where eligible
// two-color ensembles step 64 replicas per word on the bit-sliced tier —
// which cannot change a single byte of any Result (the tier is bit-exact
// and the wire carries no tier metadata), so cache entries written here
// are indistinguishable from /v1/runs ones.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	bs, err := dynmon.ParseBatchSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	digests := make([]string, len(bs.Items))
	for i := range bs.Items {
		if digests[i], err = bs.ItemDigest(i); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}

	// Per-item cache lookups before admission, so a fully cached batch costs
	// no worker slot.
	items := make([]batchItem, len(bs.Items))
	var misses []int
	for i, d := range digests {
		items[i] = batchItem{Digest: d}
		if v, ok := s.results.Get(d); ok {
			s.metrics.CacheHits.Add(1)
			items[i].Cached = true
			items[i].Result = v.(*cachedResult).json
		} else {
			s.metrics.CacheMisses.Add(1)
			misses = append(misses, i)
		}
	}

	if len(misses) > 0 {
		release, err := s.acquire(r.Context())
		if err != nil {
			s.admissionError(w, err)
			return
		}
		defer release()
		ctx, cancel := s.runContext(r.Context())
		defer cancel()

		sysDigest, err := bs.System.Digest()
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		sys, err := s.systemFor(sysDigest, &bs.System)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		target := bs.Run.Target
		if target == dynmon.None {
			target = 1
		}
		initials := make([]*dynmon.Coloring, len(misses))
		for j, i := range misses {
			cons, err := sys.BuildInitial(&bs.Items[i], target)
			if err != nil {
				httpError(w, http.StatusUnprocessableEntity, err.Error())
				return
			}
			initials[j] = cons.Coloring
		}
		s.metrics.RunsStarted.Add(int64(len(misses)))
		results, err := sys.NewSession(s.cfg.Workers).RunBatch(ctx, initials, dynmon.WithRunSpec(bs.Run))
		if err != nil {
			s.metrics.RunsFailed.Add(int64(len(misses)))
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		for j, i := range misses {
			b, merr := s.settleInline(results[j], true, digests[i])
			if merr != nil {
				httpError(w, http.StatusInternalServerError, merr.Error())
				return
			}
			items[i].Result = b
		}
	}

	writeJSON(w, http.StatusOK, struct {
		Results []batchItem `json:"results"`
	}{items})
}
