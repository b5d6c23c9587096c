package dynmon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"iter"

	"repro/internal/sim"
)

// Step is one round of a streaming run, yielded by System.Steps.  The value
// and its Config are live engine state, valid only until the next iteration
// of the stream; Checkpoint takes a durable, serializable snapshot.
type Step struct {
	sim *sim.Step
	sys *System
	rs  *RunSpec
}

// Round returns the 1-based round this step completed.
func (st *Step) Round() int { return st.sim.Round }

// Changed returns the number of vertices that changed color this round.
func (st *Step) Changed() int { return st.sim.Changed }

// Done reports that the run stopped on its own this round; this is the
// stream's final step and Result carries the completed result.
func (st *Step) Done() bool { return st.sim.Done }

// Result returns the completed Result on the Done step (and the partial
// result on a step yielded with a cancellation error), nil otherwise.
func (st *Step) Result() *Result { return st.sim.Result }

// Config returns the configuration at the end of this step's round — a live
// engine buffer: valid until the next step, and it must not be mutated.
func (st *Step) Config() *Coloring { return st.sim.Config() }

// Checkpoint snapshots the run at this step as a serializable Checkpoint:
// the system spec (when the system has one), the run spec, the round, the
// configuration and the stop-detector state.  Resuming it with
// System.Resume — in this process or any other — continues bit-identically
// to a run that was never interrupted.  It returns an error when the run's
// options cannot be serialized (a custom Availability implementation with
// no spec form); observers are process-local attachments and are dropped,
// not errors.
func (st *Step) Checkpoint() (*Checkpoint, error) {
	return checkpointOf(st.sys, st.rs, st.sim.Checkpoint())
}

// Steps returns the run as a pull-based sequence of per-round steps — the
// streaming form of Run, bit-identical to it: both consume the engine's one
// round loop, and Run is itself a drain of this stream.  The iterator
// yields one Step after every synchronous round; the final step has Done
// set and carries the completed Result.  Breaking out of the loop early is
// the streaming equivalent of cancellation — the run stops at that round
// boundary and its pooled buffers return to the engine.  When ctx is
// canceled the stream yields a final partial-result step together with
// ctx.Err().
//
// Observers attached through WithObserver are honored exactly as in Run
// (they are one adapter over this stream).  The automatic kernel selection
// is Run's too, including the bitplane tier: its per-round scalar view is
// unpacked lazily, so consumers that only look at Round/Changed keep the
// word-parallel speed.
func (s *System) Steps(ctx context.Context, initial *Coloring, opts ...RunOption) iter.Seq2[*Step, error] {
	rs := runSpecOf(opts)
	return func(yield func(*Step, error) bool) {
		opt, err := rs.engineOptions(s.palette.K)
		if err != nil {
			yield(nil, err)
			return
		}
		s.wrapStream(s.engine.Stream(ctx, initial, opt), &rs, yield)
	}
}

// wrapStream adapts an engine step stream to the public Step type, firing
// the CheckpointEvery cadence on the way through.  The cadence snapshot is
// taken at the round boundary, before the step is yielded, so a consumer
// that breaks out of the loop still leaves the sink holding the newest
// checkpoint.
func (s *System) wrapStream(inner iter.Seq2[*sim.Step, error], rs *RunSpec, yield func(*Step, error) bool) {
	step := &Step{sys: s, rs: rs}
	for in, err := range inner {
		if in == nil {
			if !yield(nil, err) {
				return
			}
			continue
		}
		step.sim = in
		if err == nil && rs.cpEvery > 0 && !in.Done && in.Round > 0 && in.Round%rs.cpEvery == 0 {
			cp, cperr := step.Checkpoint()
			if cperr == nil {
				cperr = rs.cpSink(cp)
			}
			if cperr != nil {
				yield(nil, fmt.Errorf("dynmon: checkpoint cadence at round %d: %w", in.Round, cperr))
				return
			}
		}
		if !yield(step, err) {
			return
		}
	}
}

// Checkpoint is the serializable state of an interrupted run: everything
// needed to continue it — in this process or another — bit-identically to a
// run that was never interrupted.  It is the engine's resume state plus the
// system and run pins: the embedded Resume carries the round, the
// configuration at its end (config), the one before it (prev, which a
// round-0 checkpoint never has), and the trace so far (changes_per_round,
// first_reached, monotone_target).  A checkpoint without prev still
// resumes exactly, except that a cycle spanning the checkpoint boundary is
// detected two rounds later.  Produce one with Step.Checkpoint (from a
// stream) or System.CheckpointFromResult (from a canceled run's partial
// Result); consume it with System.Resume.
type Checkpoint struct {
	// System optionally pins the system the checkpoint belongs to; Resume
	// rejects a checkpoint whose system spec differs from its own.  It is
	// omitted for systems with no spec form.
	System *Spec `json:"system,omitempty"`
	// Run is the run description in force; Resume re-applies it, with any
	// extra options layered on top.
	Run *RunSpec `json:"run,omitempty"`
	sim.Resume
}

// checkpointOf pins the engine snapshot to its system and run.
func checkpointOf(sys *System, rs *RunSpec, snap *sim.Resume) (*Checkpoint, error) {
	run := rs.wireClone()
	if rs.availability != nil {
		spec, ok := availabilitySpecOf(rs.availability)
		if !ok {
			return nil, fmt.Errorf("dynmon: the run's availability model (%T) has no spec form and cannot be checkpointed; use RunSpec.TimeVarying or a built-in model", rs.availability)
		}
		run.TimeVarying = spec
	}
	cp := &Checkpoint{Run: &run, Resume: *snap}
	// The system spec is a convenience pin, not a requirement: systems
	// without a wire form still checkpoint, they just cannot be validated
	// against on resume.
	if spec, err := sys.Spec(); err == nil {
		cp.System = spec
	}
	return cp, nil
}

// CheckpointFromResult emits a checkpoint from a Result — the batch-side
// twin of Step.Checkpoint, intended for the partial result of a
// context-canceled run.  opts must be the options the run was started with
// (they become the checkpoint's run spec).  Checkpointing a completed
// result is allowed and resumes as a no-op unless the options changed.
func (s *System) CheckpointFromResult(res *Result, opts ...RunOption) (*Checkpoint, error) {
	snap, ok := res.ResumeState()
	if !ok {
		return nil, fmt.Errorf("dynmon: result carries no resumable state")
	}
	rs := runSpecOf(opts)
	return checkpointOf(s, &rs, snap)
}

// JSON renders the checkpoint as indented JSON with a trailing newline.
func (cp *Checkpoint) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseCheckpoint decodes a checkpoint, strictly: unknown fields, malformed
// values and structural inconsistencies are errors, never panics.
func ParseCheckpoint(data []byte) (*Checkpoint, error) {
	return parseStrict(data, "checkpoint", (*Checkpoint).Validate)
}

// Validate checks the checkpoint's internal consistency: its resume state
// (Resume.Validate) and its system pin.  The fit to a system is checked by
// System.Resume, which knows the system.
func (cp *Checkpoint) Validate() error {
	if err := cp.Resume.Validate(); err != nil {
		return err
	}
	if cp.System != nil {
		return cp.System.Validate()
	}
	return nil
}

// Resume continues a checkpointed run on this system, bit-identically to a
// run that was never interrupted: rounds restart at cp.Round+1 under the
// checkpoint's run spec, with any extra options layered on top.  It is the
// primitive that lets long runs migrate across processes — checkpoint,
// ship the JSON, resume elsewhere.  It is a drain of ResumeSteps, as Run is
// of Steps, so the CheckpointEvery cadence holds here too.
//
// The checkpoint must fit the system (a valid resume state of matching
// dimensions; matching system spec when the checkpoint pins one).
// Resuming never re-enters the bitplane tier — a checkpoint carries scalar
// state — which changes nothing about the result, by the engine's tier
// contract.
func (s *System) Resume(ctx context.Context, cp *Checkpoint, opts ...RunOption) (*Result, error) {
	return drainSteps(s.ResumeSteps(ctx, cp, opts...))
}

// ResumeSteps is Resume in streaming form — the Steps iterator continuing a
// checkpointed run instead of starting one: rounds resume at cp.Round+1
// under the checkpoint's run spec (plus any extra options), one Step per
// round, terminal step carrying the completed Result, bit-identical to a run
// that was never interrupted.  It is the re-attach primitive of the dynserve
// server: an evicted job resumes from its checkpoint and the reconnected
// client streams the remaining rounds.
func (s *System) ResumeSteps(ctx context.Context, cp *Checkpoint, opts ...RunOption) iter.Seq2[*Step, error] {
	return func(yield func(*Step, error) bool) {
		rs, snap, err := s.resumeSpec(cp, opts)
		if err != nil {
			yield(nil, err)
			return
		}
		opt, err := rs.engineOptions(s.palette.K)
		if err != nil {
			yield(nil, err)
			return
		}
		s.wrapStream(s.engine.StreamFrom(ctx, snap, opt), &rs, yield)
	}
}

// resumeSpec checks a checkpoint's system pin against this system and
// lowers it to the effective RunSpec and its embedded resume state, which
// the engine validates.
func (s *System) resumeSpec(cp *Checkpoint, opts []RunOption) (RunSpec, *sim.Resume, error) {
	var rs RunSpec
	if cp == nil {
		return rs, nil, fmt.Errorf("dynmon: nil checkpoint")
	}
	if cp.System != nil {
		own, err := s.Spec()
		if err != nil {
			return rs, nil, fmt.Errorf("dynmon: checkpoint pins a system spec but this system has none: %w", err)
		}
		if !specEqual(own, cp.System) {
			return rs, nil, fmt.Errorf("dynmon: checkpoint belongs to a different system (spec mismatch)")
		}
	}
	if cp.Run != nil {
		rs = *cp.Run
	}
	for _, opt := range opts {
		opt(&rs)
	}
	return rs, &cp.Resume, nil
}

// drainSteps runs a public step stream to completion and returns its final
// (or, under cancellation, partial) Result — the public-surface twin of the
// engine's stream drain, behind Run and Resume.
func drainSteps(seq iter.Seq2[*Step, error]) (*Result, error) {
	var res *Result
	for st, err := range seq {
		if st != nil && st.Result() != nil {
			res = st.Result()
		}
		if err != nil {
			return res, err
		}
		if st != nil && st.Done() {
			return res, nil
		}
	}
	return res, nil
}

// specEqual compares two specs by canonical digest, so alias forms of the
// same system compare equal; specs that cannot canonicalize (unknown names)
// fall back to raw JSON comparison.
func specEqual(a, b *Spec) bool {
	ad, errA := a.Digest()
	bd, errB := b.Digest()
	if errA == nil && errB == nil {
		return ad == bd
	}
	aj, jerrA := json.Marshal(a)
	bj, jerrB := json.Marshal(b)
	return jerrA == nil && jerrB == nil && bytes.Equal(aj, bj)
}
