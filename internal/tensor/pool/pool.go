// Package pool provides the shared worker pool the CPU kernels run on: a
// fixed set of persistent goroutines that execute chunked parallel-for jobs.
// A job's range is cut into chunks and every participant — the submitting
// goroutine always, plus whichever workers pick the job up — claims the next
// chunk from one shared cursor until none is left. The submitter's
// participation means a busy pool can never deadlock a caller: it finishes
// its own job alone if no worker joins.
//
// The pool exists because the mini training engine's hot loops (matmul
// panels, attention heads, Adam chunks) are far too short-lived to pay a
// goroutine spawn each; workers park on a channel between jobs. A kernel
// fans out through its Site, whose job records are reused run after run, so
// a fan-out allocates nothing.
//
// Sizing: the default pool targets runtime.GOMAXPROCS(0) participants (the
// scheduler's actual parallelism, which respects CPU-quota–aware deploys
// better than the raw core count), adjustable at runtime with SetLimit
// (tensor.SetParallelism forwards to it). A limit of 1 makes every job run
// serially on the caller.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ratel/internal/join"
	"ratel/internal/obs"
)

// job is one parallel run: a body over [0,n) in chunks of chunk elements,
// claimed by index from next; wg counts the chunks not yet finished. A Site
// reuses its job for run after run, so state holds the run's generation (high
// 32 bits) and the workers that joined it (low 32): an offer still queued
// when its run ended is refused by generation, and a run ends only once every
// worker that joined has left, so none claims from the job's next run.
type job struct {
	body     chunker
	n, chunk int
	next     atomic.Int64
	wg       sync.WaitGroup
	state    atomic.Uint64
}

// chunker runs a job's chunk: its Site's body with its operand.
type chunker interface{ chunk(lo, hi int) }

// offer hands a run, named by its generation, to a worker.
type offer struct {
	j   *job
	gen uint64
}

// work runs chunks claimed from the cursor until the job is exhausted and
// returns how many it ran.
func (j *job) work() (claimed int64) {
	for {
		lo := int(j.next.Add(1)-1) * j.chunk
		if lo >= j.n {
			return claimed
		}
		j.body.chunk(lo, min(lo+j.chunk, j.n))
		j.wg.Done()
		claimed++
	}
}

// join is a worker's side of an offer: it works the run if it is still the
// job's current one.
func (j *job) join(gen uint64) {
	for s := j.state.Load(); s>>32 == gen; s = j.state.Load() {
		if j.state.CompareAndSwap(s, s+1) {
			j.work()
			j.state.Add(^uint64(0))
			return
		}
	}
}

// end closes the run once every chunk has finished: its queued offers are
// refused from here on, and it returns when the workers that joined — past
// their last chunk, so only leaving — have left.
func (j *job) end() {
	for s := j.state.Add(1 << 32); uint32(s) != 0; s = j.state.Load() {
		runtime.Gosched()
	}
}

// Pool is a set of persistent workers executing chunked parallel-for jobs.
// The zero value is not usable; use New or Default.
type Pool struct {
	jobs  chan offer
	limit atomic.Int32 // participants per job (workers + caller)

	// jobLat, when set, receives each parallel job's wall time (dispatch
	// to completion) — the pool-latency histogram the engine's telemetry
	// exports. Inline runs are not recorded: they have no dispatch cost,
	// and timing them would put two clock reads on the serial fast path.
	jobLat atomic.Pointer[obs.Histogram]

	mu      sync.Mutex
	spawned int // worker goroutines started so far
	workers join.Group

	// closeOnce closes jobs at most once, however many owners call Close.
	closeOnce sync.Once

	stats struct {
		jobs            atomic.Int64
		inlineRuns      atomic.Int64
		submitterChunks atomic.Int64
		workerChunks    atomic.Int64
	}
}

// Stats is a snapshot of a pool's scheduling counters: how much work was
// dispatched in parallel, how much ran inline on the caller, and how the
// chunks of parallel jobs split between the submitting goroutine and the
// workers (the pool-utilization signal the metrics registry exports).
type Stats struct {
	// Jobs is the number of parallel-for jobs dispatched to workers.
	Jobs int64
	// InlineRuns counts invocations that ran entirely on the caller —
	// Limit() 1, a single chunk, or work under the InlineWork cutoff.
	InlineRuns int64
	// SubmitterChunks and WorkerChunks split claimed chunks of parallel
	// jobs by who claimed them; their sum is the total chunk count.
	SubmitterChunks int64
	WorkerChunks    int64
	// StolenChunks is always 0: every participant claims from one shared
	// cursor, so no chunk belongs to anyone before it is claimed.
	StolenChunks int64
}

// Stats reads the pool's counters atomically enough for monitoring: each
// field is an atomic load, so sums are consistent once every For has
// returned.
func (p *Pool) Stats() Stats {
	return Stats{
		Jobs:            p.stats.jobs.Load(),
		InlineRuns:      p.stats.inlineRuns.Load(),
		SubmitterChunks: p.stats.submitterChunks.Load(),
		WorkerChunks:    p.stats.workerChunks.Load(),
	}
}

// ResetStats zeroes the counters (benchmark hook: measure one region).
func (p *Pool) ResetStats() {
	p.stats.jobs.Store(0)
	p.stats.inlineRuns.Store(0)
	p.stats.submitterChunks.Store(0)
	p.stats.workerChunks.Store(0)
}

// New creates a pool that runs jobs with up to workers participants
// (workers-1 background goroutines plus the submitting goroutine).
func New(workers int) *Pool {
	p := &Pool{jobs: make(chan offer, 128)}
	p.SetLimit(workers)
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide pool, created on first use with
// runtime.GOMAXPROCS(0) participants — the scheduler's actual parallelism,
// which tracks CPU quotas and GOMAXPROCS overrides where raw
// runtime.NumCPU() would oversubscribe.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New(runtime.GOMAXPROCS(0)) })
	return defaultPool
}

// SetLimit sets the number of participants per job, clamped to at least 1.
// The pool grows its worker set as needed; shrinking only lowers the
// participation limit (excess workers stay parked, costing nothing).
func (p *Pool) SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	for p.spawned < n-1 {
		p.workers.Go(func() {
			for o := range p.jobs {
				o.j.join(o.gen)
			}
		})
		p.spawned++
	}
	p.mu.Unlock()
	p.limit.Store(int32(n))
}

// Limit reports the current participants-per-job limit.
func (p *Pool) Limit() int { return int(p.limit.Load()) }

// Close retires the pool's workers and returns once each has drained the
// closed jobs channel and exited. It is idempotent and safe to call
// concurrently; a For that dispatches after (or racing) it panics. The
// process-wide Default pool is never closed.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.jobs) })
	p.workers.Wait()
}

// SetJobHistogram installs (or, with nil, removes) the histogram that
// receives each parallel job's wall time. Safe to call concurrently with
// For; the record path is allocation-free.
func (p *Pool) SetJobHistogram(h *obs.Histogram) { p.jobLat.Store(h) }

// Site is one fan-out call site: a static body over a range and a value
// operand, and the records its parallel runs take and put back. A site holds
// as many records as it ever ran at once (nested and concurrent callers take
// one each) and, like the step's arenas, allocates only while that high-water
// mark grows; the operand is passed by value, so a call captures nothing.
type Site[T any] struct {
	body func(op T, lo, hi int)
	mu   sync.Mutex
	free []*task[T]
}

// task is a Site's record: a job and the operand its chunks run on.
type task[T any] struct {
	job
	site *Site[T]
	op   T
}

func (t *task[T]) chunk(lo, hi int) { t.site.body(t.op, lo, hi) }

// NewSite returns the site of body.
func NewSite[T any](body func(op T, lo, hi int)) *Site[T] { return &Site[T]{body: body} }

// Run runs s's body over [0,n) with operand op on the default pool: as one
// call body(op, 0, n) on the caller when InlineWork(work) says so (work is
// the run's estimated scalar-op count), else as For does.
func Run[T any](s *Site[T], work int64, n, grain int, op T) {
	if InlineWork(work) {
		s.body(op, 0, n)
		return
	}
	run(Default(), s, n, grain, op)
}

// run is For over s's body with operand op on p.
func run[T any](p *Pool, s *Site[T], n, grain int, op T) {
	if n <= 0 {
		return
	}
	lim := p.Limit()
	// ~4 chunks per participant: enough slack to balance uneven chunk
	// costs without drowning in scheduling overhead.
	chunk := max(grain, 1, (n+4*lim-1)/(4*lim))
	chunks := (n + chunk - 1) / chunk
	if lim <= 1 || chunks == 1 {
		p.stats.inlineRuns.Add(1)
		s.body(op, 0, n)
		return
	}
	s.mu.Lock()
	var t *task[T]
	if k := len(s.free) - 1; k >= 0 {
		t, s.free = s.free[k], s.free[:k]
	} else {
		t = &task[T]{site: s}
		t.body = t
	}
	s.mu.Unlock()
	t.op = op
	p.dispatch(&t.job, n, chunk, chunks, lim)
	t.op = *new(T) // hold no operand between runs
	s.mu.Lock()
	s.free = append(s.free, t)
	s.mu.Unlock()
}

// dispatch runs j over [0,n) in chunks of chunk elements with up to lim
// participants, the caller one of them, and ends the run.
func (p *Pool) dispatch(j *job, n, chunk, chunks, lim int) {
	p.stats.jobs.Add(1)
	lat := p.jobLat.Load()
	var latStart time.Time
	if lat != nil {
		latStart = time.Now()
	}
	j.n, j.chunk = n, chunk
	j.next.Store(0)
	j.wg.Add(chunks)
	o := offer{j, j.state.Load() >> 32}
	for range min(lim, chunks) - 1 {
		select {
		case p.jobs <- o:
		default:
			// Pool saturated with other jobs; the caller still completes
			// this one alone rather than blocking.
		}
	}
	own := j.work()
	j.wg.Wait()
	j.end()
	// The submitter credits the workers' chunks too, so the counts are
	// whole once the run returns: a worker's own credit could land after it.
	p.stats.submitterChunks.Add(own)
	p.stats.workerChunks.Add(int64(chunks) - own)
	if lat != nil {
		lat.RecordDuration(time.Since(latStart))
	}
}

// funcs is the site of For's closures.
var funcs = NewSite(func(body func(lo, hi int), lo, hi int) { body(lo, hi) })

// For splits [0,n) into contiguous chunks of at least grain elements and
// runs body(lo, hi) for each, across up to Limit() participants, returning
// when every chunk has finished. Chunks must be independent: they may run
// concurrently and in any order. The partition is a pure function of (n,
// grain, Limit()), so within a fixed parallelism setting every call over the
// same range is carved identically — re-running a kernel reproduces its
// chunk boundaries exactly. With Limit() 1 or a single chunk the caller
// runs body(0, n) inline with no synchronization. For allocates nothing; a
// body that captures is a closure its caller allocates (a kernel uses a Site).
func (p *Pool) For(n, grain int, body func(lo, hi int)) { run(p, funcs, n, grain, body) }

// For is Default().For.
func For(n, grain int, body func(lo, hi int)) { Default().For(n, grain, body) }

// serialCutoff is the estimated scalar-op count below which InlineWork
// sends a kernel down its serial path: a job this small finishes faster
// than its dispatch.
const serialCutoff = 1 << 17

// InlineWork reports whether a run with the given estimated work (in scalar
// ops) should run inline on the caller — work under serialCutoff, or Limit()
// 1 — recording it as an inline run when so. Run asks it for every site's
// call, so no kernel has a serial branch of its own.
func InlineWork(work int64) bool {
	p := Default()
	if work < serialCutoff || p.Limit() <= 1 {
		p.stats.inlineRuns.Add(1)
		return true
	}
	return false
}

// DefaultStats is Default().Stats.
func DefaultStats() Stats { return Default().Stats() }
