package dynmon

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"repro/internal/sim"
)

// Session fans batches of independent simulations across a bounded worker
// pool sharing the system's single immutable engine — the building block
// for serving many verification requests over one topology/rule pair
// without rebuilding adjacency tables per request.
//
// Results are bit-identical to one-at-a-time System.Run calls whichever
// path a batch takes.  Eligible batches — a two-color ensemble over a
// degree-4 substrate whose rule has a carry-save kernel, run with default
// (auto-kernel, sequential, unobserved) options — are stepped on the
// bit-sliced ensemble tier: up to 64 replicas packed one per bit of each
// vertex word and advanced together by sim.Engine.RunBatchSliced, with
// larger batches tiled in 64-lane words across the worker pool.  Anything
// the slicer cannot take (wider palettes, irregular graphs, forced kernels,
// observers, …) falls back to the per-run sequential stepper, parallel
// across batch items.  A Session is safe for concurrent use by multiple
// goroutines; each batch call gets its own pool of up to Workers
// goroutines.
//
// A Session holds no goroutines, file descriptors or timers between calls —
// its worker pools are scoped to each RunBatch/VerifyBatch invocation and
// are fully joined (via sync.WaitGroup) before the call returns, including
// on cancellation, where workers drain the remaining indices without
// working.  There is therefore no Close: long-lived holders — the dynserve
// server keeps Sessions for the process lifetime — simply drop the last
// reference and the garbage collector reclaims everything.  This contract is
// pinned by a race-enabled leak test (TestSessionAbandonLeaksNothing).
type Session struct {
	sys     *System
	workers int
}

// NewSession returns a session running at most workers simulations of a
// batch concurrently (workers <= 0 selects runtime.GOMAXPROCS(0)).
func (s *System) NewSession(workers int) *Session {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Session{sys: s, workers: workers}
}

// System returns the session's system.
func (se *Session) System() *System { return se.sys }

// Workers returns the pool bound.
func (se *Session) Workers() int { return se.workers }

// batchOptions folds run options into the engine options every item of a
// pooled batch or ensemble runs with, applying the pool's normalization:
// per-run parallel stepping would oversubscribe the pool — the batch is the
// unit of parallelism — so Parallel is cleared and a forced parallel tier
// is normalized to the sweep it would otherwise degrade to.
func (s *System) batchOptions(rs RunSpec) (sim.Options, error) {
	rs.Parallel = false
	if rs.Kernel == sim.KernelParallel.String() {
		rs.Kernel = sim.KernelSweep.String()
	}
	return rs.engineOptions(s.palette.K)
}

// RunBatch evolves every initial coloring under the system's rule and
// returns one Result per input, in input order.  The run options apply to
// every item.  Eligible batches are stepped on the bit-sliced ensemble
// tier (see the Session doc); ineligible ones run per item.  Either way
// each entry is bit-identical to what System.Run would have produced.
// When ctx is canceled mid-batch the call returns ctx.Err(); entries whose
// simulation did not complete are nil.
func (se *Session) RunBatch(ctx context.Context, initials []*Coloring, opts ...RunOption) ([]*Result, error) {
	opt, err := se.sys.batchOptions(runSpecOf(opts))
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(initials))
	err = se.runBatchInto(ctx, initials, opt, func(i int, res *sim.Result) {
		results[i] = res
	})
	return results, err
}

// runBatchInto drives one batch, delivering each completed item's Result
// through set (called at most once per index, never concurrently for the
// same index, possibly from different pool goroutines for different ones).
//
// Phase 1 tiles the batch into spans of up to 64 replicas and offers each
// tile to the engine's bit-sliced ensemble stepper; a tile the slicer
// refuses (sim.ErrBitsliceIneligible — e.g. a lane using more than two
// colors) is recorded for fallback rather than failing the batch.  Phase 2
// reruns only the refused indices on the per-run sequential stepper.  Both
// phases fan out over the session's worker pool; for sliced tiles the tile
// is the unit of parallelism, the word-level lane parallelism inside it
// being the point of the exercise.
func (se *Session) runBatchInto(ctx context.Context, initials []*Coloring, opt sim.Options, set func(i int, res *sim.Result)) error {
	n := len(initials)
	tiles := (n + sim.BitsliceLanes - 1) / sim.BitsliceLanes
	missed := make([][]int, tiles)
	err := forEach(ctx, se.workers, tiles, func(ctx context.Context, t int) error {
		lo := t * sim.BitsliceLanes
		hi := min(lo+sim.BitsliceLanes, n)
		results, err := se.sys.engine.RunBatchSliced(ctx, initials[lo:hi], opt)
		if errors.Is(err, sim.ErrBitsliceIneligible) {
			idx := make([]int, hi-lo)
			for i := range idx {
				idx[i] = lo + i
			}
			missed[t] = idx
			return nil
		}
		// Lanes that finished before a cancellation still carry results;
		// deliver them so a partial batch looks the same as the per-run
		// path's (completed entries set, the rest nil).
		for i, res := range results {
			if res != nil {
				set(lo+i, res)
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	var fallback []int
	for _, idx := range missed {
		fallback = append(fallback, idx...)
	}
	if len(fallback) == 0 {
		return nil
	}
	return forEach(ctx, se.workers, len(fallback), func(ctx context.Context, j int) error {
		i := fallback[j]
		res, err := se.sys.engine.RunContext(ctx, initials[i], opt)
		if err != nil {
			return err
		}
		set(i, res)
		return nil
	})
}

// VerifyBatch runs every initial coloring to its verdict under the
// system's rule and returns one Report per input, in input order.  Extra
// run options layer over the standard verification options and get the same
// normalization as RunBatch (no per-run parallelism: the batch is the unit
// of parallelism, so a Parallel or KernelParallel option is demoted to the
// sequential sweep instead of oversubscribing the pool).  When ctx is
// canceled mid-batch the call returns ctx.Err(); entries whose simulation
// did not complete are nil.
func (se *Session) VerifyBatch(ctx context.Context, initials []*Coloring, target Color, opts ...RunOption) ([]*Report, error) {
	rs := verifySpec(target)
	for _, opt := range opts {
		opt(&rs)
	}
	opt, err := se.sys.batchOptions(rs)
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, len(initials))
	err = se.runBatchInto(ctx, initials, opt, func(i int, res *sim.Result) {
		reports[i] = se.sys.reportFromResult("batch coloring", initials[i].Count(target), target, res)
	})
	return reports, err
}

// forEach runs fn(0..n-1) on up to workers goroutines and returns the
// first error (worker errors win over the context error only in the sense
// that both are ctx.Err() here; fn errors are surfaced as-is).  The first
// error cancels the context fn runs under, and the remaining indices drain
// without working.
func forEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	indices := make(chan int)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	workCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				if workCtx.Err() != nil {
					continue // drain without working after a failure
				}
				if err := fn(workCtx, i); err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		indices <- i
	}
	close(indices)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// The pool may have drained without running anything (e.g. the parent
	// context was already canceled); surface that.
	return ctx.Err()
}
