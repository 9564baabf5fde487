// Campaign engine: deterministic fan-out of injection trials across a
// worker pool.
//
// The paper's campaigns are statistical — thousands of independent trials
// per benchmark — and every trial forks its own corrupted machine, so the
// work is embarrassingly parallel. What is NOT trivially parallel is the
// methodology's determinism contract: a campaign must be a pure function of
// its configuration, bit-identical however many workers run it. Two design
// moves make that hold:
//
//  1. All random decisions are pre-drawn serially. The single seeded
//     rand.Rand is consumed on the dispatching goroutine, in exactly the
//     order the serial engine consumed it, before any trial runs. Workers
//     never touch an RNG (the restorelint determinism analyzer flags a
//     *rand.Rand captured by a goroutine closure for this reason).
//
//  2. Every trial writes into a pre-sized result slot indexed by its
//     (point, trial) coordinates. Completion order affects nothing; no
//     locks are involved; the race detector sees only disjoint writes.
//
// Golden-trace recording stays on the dispatching goroutine — the golden
// pipeline advances point to point and cannot be shared — while trials fan
// out behind it. A pool of forks (reset from the golden machine via
// Pipeline.ResetFrom / Memory.CopyFrom) recycles the per-trial fork
// allocations that otherwise dominate the campaign's profile.
package inject

import (
	"errors"
	"sync"

	"repro/internal/obs"
)

// ErrNoEligibleBits is returned when a campaign's targeting constraints
// leave no bits to flip (e.g. LatchesOnly over a state space with no latch
// bits). It is a configuration error, reported instead of letting the
// uniform bit sampler reject forever.
var ErrNoEligibleBits = errors.New("inject: no bits eligible for injection under the campaign's targeting constraints")

// engine dispatches trial simulations. With workers <= 1 it degenerates to
// running every task inline on the dispatching goroutine, in slot order;
// with N > 1 it fans tasks out over N goroutines. Either way a task runs on
// its own fork of the golden machine, so the two modes share one trial path.
// The bounded task channel doubles as backpressure: the dispatcher stalls
// rather than piling up cloned pipelines (and pinned golden traces) faster
// than the workers retire them. After each task, retire journals and counts
// the task's slot.
type engine struct {
	tasks  chan task
	wg     sync.WaitGroup
	retire func(slot int)

	// Write-only telemetry (nil handles when the campaign runs without a
	// sink): wall-clock time workers spend inside trials, and the queue
	// depth seen at each submit — together they show whether the dispatcher
	// (golden-trace recording) or the workers are the bottleneck.
	busy  *obs.Timer
	depth *obs.Hist
}

// task is one trial simulation filling one pre-assigned result slot.
type task struct {
	slot int
	run  func()
}

// newEngine returns an engine with the given worker count (<= 1 = serial).
// sink may be nil; prefix namespaces the engine's metrics per campaign type
// (e.g. "campaign_uarch" yields campaign_uarch_worker_busy).
func newEngine(workers int, sink obs.Sink, prefix string, retire func(slot int)) *engine {
	e := &engine{
		retire: retire,
		busy:   sink.Timer(prefix + "_worker_busy"),
		depth:  sink.Hist(prefix + "_queue_depth"),
	}
	if workers <= 1 {
		return e
	}
	// Workers capture the channel value, not the field: wait() nils the
	// field on the dispatching goroutine, which a late-starting worker
	// must not observe.
	tasks := make(chan task, 2*workers)
	e.tasks = tasks
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for t := range tasks {
				e.exec(t)
			}
		}()
	}
	return e
}

func (e *engine) exec(t task) {
	sw := e.busy.Start()
	t.run()
	e.retire(t.slot)
	sw.Stop()
}

// submit runs slot's trial inline (serial engine) or enqueues it for a
// worker.
func (e *engine) submit(slot int, run func()) {
	if e.tasks == nil {
		e.exec(task{slot, run})
		return
	}
	e.depth.Observe(int64(len(e.tasks)))
	e.tasks <- task{slot, run}
}

// wait blocks until every submitted task has finished. It must be called
// exactly from the dispatching goroutine, and is safe to call more than
// once (error paths drain the pool before returning).
func (e *engine) wait() {
	if e.tasks == nil {
		return
	}
	close(e.tasks)
	e.tasks = nil
	e.wg.Wait()
}

// forkPool recycles per-trial forks of a golden machine (pipeline clones,
// memory images). acquire must be called from the dispatching goroutine (it
// reads the golden source); release may be called from any worker. The
// hit/miss counters (nil without a sink) expose the recycling rate: a high
// miss count means workers are not returning forks fast enough and the pool
// is allocating fresh ones.
type forkPool[F any] struct {
	pool         sync.Pool
	hits, misses *obs.Counter
	clone        func(src F) F
	reset        func(dst, src F) // re-images a retired fork from src
}

// newForkPool allocates the pool on its own: the runtime holds every used
// sync.Pool until two collections after its last use, and a pool embedded in
// a campaign's model would pin the whole model (golden machine included)
// that long.
func newForkPool[F any](sink obs.Sink, prefix string, clone func(F) F, reset func(F, F)) *forkPool[F] {
	return &forkPool[F]{
		hits:   sink.Counter(prefix + "_hits_total"),
		misses: sink.Counter(prefix + "_misses_total"),
		clone:  clone,
		reset:  reset,
	}
}

func (p *forkPool[F]) acquire(src F) F {
	if v := p.pool.Get(); v != nil {
		p.hits.Inc()
		f := v.(F)
		p.reset(f, src)
		return f
	}
	p.misses.Inc()
	return p.clone(src)
}

func (p *forkPool[F]) release(f F) { p.pool.Put(f) }
