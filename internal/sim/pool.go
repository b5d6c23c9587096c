package sim

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/color"
)

// stripeTask is one unit of striped step work.  Tasks live in a per-run
// buffer recycled through the engine's state pool, so steady-state parallel
// stepping allocates nothing: a step fills the pre-allocated tasks, hands
// pointers to the shared worker pool and waits on the run's WaitGroup.
//
// run is one of the package-level method expressions below, chosen by the
// tier: the scalar stripes step the round their sweep driver sw describes,
// the bitplane stripe uses bp.  The outputs (changed, lost, same) are
// written by the worker and read by the submitter after the WaitGroup
// settles.
type stripeTask struct {
	run func(*stripeTask)
	wg  *sync.WaitGroup

	// sw parameterizes the scalar stripes: every stripe of a round reads the
	// same driver, which does not change until the round's barrier.
	sw *sweepDriver

	// bp parameterizes the bitplane stripe: the task steps the word range
	// [lo, hi) in fused shift+kernel cache blocks.
	bp *Bitplane

	// scratch backs the scalar stripes' neighbor gathering.  It is owned by
	// the task slot and survives across steps (stripeAcross's fill callbacks
	// preserve it), so steady-state parallel stepping stays allocation-free
	// on irregular substrates too.
	scratch []color.Color

	lo, hi  int
	changed int
	// lost reports that a target-colored vertex of the stripe lost the
	// color this round; same, that the stripe's range equals its slice of
	// the configuration two rounds back (see trace); leftTable, that a
	// color outside the rule table sent the stripe to the counts path.
	lost, same, leftTable bool
}

func (t *stripeTask) runSweep() {
	d := t.sw
	t.growScratch()
	t.changed, t.leftTable = d.e.stepRange(d.tab, d.cur.Cells(), d.next.Cells(), t.lo, t.hi, t.scratch)
	t.trace()
}

func (t *stripeTask) runSweepTV() {
	d := t.sw
	t.growScratch()
	t.changed = d.e.stepRangeTV(d.round, d.tv, d.cur.Cells(), d.next.Cells(), t.lo, t.hi, t.scratch)
	t.trace()
}

func (t *stripeTask) runStochastic() {
	d := t.sw
	t.growScratch()
	t.changed = d.e.stepRangeStochastic(d.round, d.sched, d.noise, d.keys, d.tab, d.cur.Cells(), d.next.Cells(), t.lo, t.hi, t.scratch)
	t.trace()
}

// runInPlace is the sequential schedules' round, always a single stripe
// over the whole lattice.
func (t *stripeTask) runInPlace() {
	d := t.sw
	t.growScratch()
	t.changed = d.e.stepInPlace(d.round, d.sched, d.noise, d.keys, d.tab, d.cur.Cells(), d.next.Cells(), &d.st.order, t.scratch)
	t.trace()
}

// growScratch sizes the task's scratch buffer to the substrate's maximum
// degree.  It allocates at most once per task slot (the slot keeps the
// buffer across steps); the WaitGroup handoff orders the write against the
// submitter's next reuse of the slot.
func (t *stripeTask) growScratch() {
	if maxDeg := t.sw.e.maxDeg; cap(t.scratch) < maxDeg {
		t.scratch = make([]color.Color, 0, maxDeg)
	}
}

// trace is the round's per-vertex bookkeeping over the stripe's own range,
// done by the stripe that stepped it while the range is still warm in that
// core's cache: the FirstReached entries of the vertices that took the
// target color this round, whether one lost it and, with cycle detection
// on, the period-2 comparison against the configuration two rounds back,
// which then advances one round.  Stripes write disjoint ranges of
// FirstReached and prevPrev.
func (t *stripeTask) trace() {
	d := t.sw
	cur, next := d.cur.Cells()[t.lo:t.hi], d.next.Cells()[t.lo:t.hi]
	t.lost = false
	if d.firstReached != nil {
		fr := d.firstReached[t.lo:t.hi]
		target, round := d.target, d.round
		for v, c := range next {
			if c == target {
				if fr[v] < 0 {
					fr[v] = round
				}
			} else if cur[v] == target {
				t.lost = true
			}
		}
	}
	if d.prevPrev != nil {
		pp := d.prevPrev[t.lo:t.hi]
		t.same = slices.Equal(next, pp)
		copy(pp, cur)
	}
}

func (t *stripeTask) runBitSlab() {
	t.bp.stepSlabs(t.lo, t.hi, bitplaneSlabWords)
}

// Method expressions, bound once: assigning them to stripeTask.run does not
// allocate, unlike per-step closures or bound method values.
var (
	runSweepTask      = (*stripeTask).runSweep
	runSweepTVTask    = (*stripeTask).runSweepTV
	runStochasticTask = (*stripeTask).runStochastic
	runInPlaceTask    = (*stripeTask).runInPlace
	runBitSlabTask    = (*stripeTask).runBitSlab
)

// stripePool is the process-wide persistent worker pool behind every
// parallel step: a fixed set of GOMAXPROCS(0) workers is started on first
// parallel use and lives for the life of the process, shared by all engines (engines have no Close,
// so per-engine goroutines would leak; one shared pool bounds the goroutine
// count and keeps the workers' stacks warm).
//
// Workers only ever execute leaf work (stepRange or a bit kernel) and never
// submit tasks themselves, so the pool cannot deadlock; concurrent runs from
// many goroutines interleave their tasks freely because completion is
// tracked per-run through each submitter's own WaitGroup.
var stripePool struct {
	once sync.Once
	ch   chan *stripeTask
}

func stripePoolStart() {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	stripePool.ch = make(chan *stripeTask, 4*n)
	for i := 0; i < n; i++ {
		go stripeWorker(stripePool.ch)
	}
}

func stripeWorker(ch chan *stripeTask) {
	for t := range ch {
		t.run(t)
		t.wg.Done()
	}
}

// stripeAcross partitions [0, n) into up to `workers` contiguous stripes,
// fills one task per stripe through fill and runs them all on the shared
// pool.  It returns the filled tasks so callers can collect per-stripe
// results (e.g. change counts).  Both striped tiers — the scalar sweep
// over vertex ranges and the bitplane kernel over word ranges — share this
// single partitioning protocol.  A single stripe runs inline on the calling
// goroutine (see runStriped), so the sequential sweep is the one-worker case
// of the same dispatch.
func (st *runState) stripeAcross(n, workers int, fill func(t *stripeTask, lo, hi int)) []stripeTask {
	if workers > n {
		workers = n
	}
	tasks := st.stripes(workers)
	chunk := (n + workers - 1) / workers
	count := 0
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		t := &tasks[count]
		count++
		// The task slot owns its scratch buffer across steps; fill callbacks
		// overwrite the whole struct, so save and restore it here.
		scratch := t.scratch
		fill(t, lo, hi)
		t.scratch = scratch
	}
	runStriped(tasks[:count], &st.wg)
	return tasks[:count]
}

// runStriped executes the tasks across the shared pool, running the last
// one on the calling goroutine (the caller would otherwise idle in Wait
// while holding a warm cache), and returns when all have finished.  More
// tasks than pool workers simply queue; they all complete.
func runStriped(tasks []stripeTask, wg *sync.WaitGroup) {
	last := len(tasks) - 1
	if last < 0 {
		return
	}
	if last == 0 {
		t := &tasks[0]
		t.run(t)
		return
	}
	stripePool.once.Do(stripePoolStart)
	wg.Add(last)
	for i := 0; i < last; i++ {
		stripePool.ch <- &tasks[i]
	}
	t := &tasks[last]
	t.run(t)
	wg.Wait()
}
