package sim

import "repro/internal/color"

// Observer receives the evolution of a run round by round, and its end,
// which is what the ready-made observers of the public dynmon package
// (history recorder, animator, stats collector) need.
//
// OnRound is invoked after every synchronous round with the 1-based round
// number and the configuration reached at the end of that round.  The
// coloring is a live buffer owned by the engine: observers must not retain
// or mutate it (clone it if a copy is needed).
//
// OnFinish is invoked exactly once when the run stops on its own (fixed
// point, cycle, monochromatic configuration or round budget).  It is NOT
// invoked when the run is aborted by context cancellation — the partial
// Result is returned to the caller together with the context error instead.
//
// Observers are invoked sequentially from the goroutine driving the run,
// never concurrently, even when the parallel stepper is enabled.
type Observer interface {
	OnRound(round int, c *color.Coloring)
	OnFinish(r *Result)
}

// RoundFunc adapts a plain per-round callback to the Observer interface; its
// OnFinish is a no-op.
type RoundFunc func(round int, c *color.Coloring)

// OnRound invokes the function.
func (f RoundFunc) OnRound(round int, c *color.Coloring) { f(round, c) }

// OnFinish does nothing.
func (RoundFunc) OnFinish(*Result) {}
