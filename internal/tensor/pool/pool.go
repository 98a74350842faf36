// Package pool provides the shared worker pool the CPU kernels run on: a
// fixed set of persistent goroutines that execute chunked parallel-for jobs.
// Scheduling is core-aware work-stealing at chunk granularity: each job's
// chunk range is split into contiguous segments, one per expected
// participant, and every participant (the submitting goroutine included)
// drains its own segment before stealing round-robin from the others.
// Adjacent chunks usually touch adjacent memory, so segment affinity keeps
// each participant streaming through one contiguous region — prefetch
// friendly, no cache-line ping-pong on a single shared cursor — while
// stealing still load-balances uneven chunks and a busy pool can never
// deadlock a caller: the caller always makes progress on its own job.
//
// The pool exists because the mini training engine's hot loops (matmul
// panels, attention heads, Adam chunks) are far too short-lived to pay a
// goroutine spawn each; workers park on a channel between jobs.
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

	"ratel/internal/obs"
)

// maxSegs caps the number of per-job segments. Segment cursors live in a
// fixed array embedded in the job struct — no per-job slice allocation, so
// the steady-state allocation pin is untouched — which makes the cap a
// compile-time constant. Participants beyond maxSegs share segments.
const maxSegs = 16

// segCursor is one segment's claim cursor, padded to a cache line so
// participants draining different segments never contend on the same line.
type segCursor struct {
	c atomic.Int64
	_ [56]byte
}

// job is one parallel-for invocation. Chunks [0,chunks) are divided into
// segs contiguous segments of segLen chunks (the last may be short); each
// segment has its own claim cursor. The participant that completes the
// last chunk closes fin.
type job struct {
	done    atomic.Int64
	chunks  int64
	segLen  int64
	segs    int
	run     func(chunk int)
	fin     chan struct{}
	pool    *Pool
	cursors [maxSegs]segCursor
}

// work claims chunks until the job is exhausted: first from the
// participant's own segment, then — once a full segment drains its cursor
// never refills, so a single round-robin pass suffices — by stealing from
// the remaining segments in order. Claims are credited to the worker or
// submitter counter, and cross-segment claims to the stolen counter, with
// one atomic add per participant rather than per chunk to keep claiming
// cheap.
func (j *job) work(worker bool, id int) {
	var claimed, stolen int64
	pref := 0
	if worker {
		// Spawn-order ids map workers onto segments 1..segs-1 first,
		// leaving segment 0 to the submitter (which starts instantly and
		// is usually the goroutine that just wrote the input).
		pref = (id + 1) % j.segs
	}
	for s := 0; s < j.segs; s++ {
		seg := pref + s
		if seg >= j.segs {
			seg -= j.segs
		}
		base := int64(seg) * j.segLen
		end := base + j.segLen
		if end > j.chunks {
			end = j.chunks
		}
		for {
			c := base + j.cursors[seg].c.Add(1) - 1
			if c >= end {
				break
			}
			claimed++
			if s != 0 {
				stolen++
			}
			j.run(int(c))
			if j.done.Add(1) == j.chunks {
				close(j.fin)
			}
		}
	}
	if claimed > 0 {
		if worker {
			j.pool.stats.workerChunks.Add(claimed)
		} else {
			j.pool.stats.submitterChunks.Add(claimed)
		}
	}
	if stolen > 0 {
		j.pool.stats.stolenChunks.Add(stolen)
	}
}

// Pool is a set of persistent workers executing chunked parallel-for jobs.
// The zero value is not usable; use New or Default.
type Pool struct {
	jobs  chan *job
	limit atomic.Int32 // participants per job (workers + caller)

	// jobLat, when set, receives each parallel job's wall time (dispatch
	// to completion) — the pool-latency histogram the engine's telemetry
	// exports. Inline runs are not recorded: they have no dispatch cost,
	// and timing them would put two clock reads on the serial fast path.
	jobLat atomic.Pointer[obs.Histogram]

	mu      sync.Mutex
	spawned int // worker goroutines started so far

	// closeOnce makes Close idempotent: the jobs channel is closed at
	// most once no matter how many owners tear the pool down.
	closeOnce sync.Once

	stats struct {
		jobs            atomic.Int64
		inlineRuns      atomic.Int64
		submitterChunks atomic.Int64
		workerChunks    atomic.Int64
		stolenChunks    atomic.Int64
	}
}

// Stats is a snapshot of a pool's scheduling counters: how much work was
// dispatched in parallel, how much ran inline on the caller, and how chunk
// stealing split between the submitting goroutine and the workers (the
// pool-utilization signal the metrics registry exports).
type Stats struct {
	// Jobs is the number of parallel-for jobs dispatched to workers.
	Jobs int64
	// InlineRuns counts invocations that ran entirely on the caller —
	// Limit() 1, a single chunk, or work under the ForWork serial cutoff.
	InlineRuns int64
	// SubmitterChunks and WorkerChunks split claimed chunks of parallel
	// jobs by who claimed them; their sum is the total chunk count.
	SubmitterChunks int64
	WorkerChunks    int64
	// StolenChunks counts chunks a participant claimed outside its own
	// segment. High values relative to the total mean chunk costs are
	// uneven (or the pool is oversubscribed) and affinity is being traded
	// for balance.
	StolenChunks int64
}

// Stats reads the pool's counters atomically enough for monitoring: each
// field is an atomic load, so sums are consistent once the pool is idle.
func (p *Pool) Stats() Stats {
	return Stats{
		Jobs:            p.stats.jobs.Load(),
		InlineRuns:      p.stats.inlineRuns.Load(),
		SubmitterChunks: p.stats.submitterChunks.Load(),
		WorkerChunks:    p.stats.workerChunks.Load(),
		StolenChunks:    p.stats.stolenChunks.Load(),
	}
}

// ResetStats zeroes the counters (benchmark hook: measure one region).
func (p *Pool) ResetStats() {
	p.stats.jobs.Store(0)
	p.stats.inlineRuns.Store(0)
	p.stats.submitterChunks.Store(0)
	p.stats.workerChunks.Store(0)
	p.stats.stolenChunks.Store(0)
}

// New creates a pool that runs jobs with up to workers participants
// (workers-1 background goroutines plus the submitting goroutine).
func New(workers int) *Pool {
	p := &Pool{jobs: make(chan *job, 128)}
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
		// Spawn-order ids give each worker a stable preferred segment
		// ((id+1) mod the job's segment count), so worker k always starts
		// in the same region of every job — segment affinity across jobs.
		go func(id int) {
			for j := range p.jobs {
				j.work(true, id)
			}
		}(p.spawned)
		p.spawned++
	}
	p.mu.Unlock()
	p.limit.Store(int32(n))
}

// Limit reports the current participants-per-job limit.
func (p *Pool) Limit() int { return int(p.limit.Load()) }

// Close retires the pool's workers: closing the jobs channel lets each
// parked worker finish any queued job and exit its range loop — the join
// edge the gojoin analyzer requires for the worker spawns in SetLimit.
// Close is idempotent and safe to call concurrently. The pool must be
// idle: Run after (or racing) Close panics on the closed channel. The
// process-wide Default pool lives for the whole process and is never
// closed.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.jobs) })
}

// SetJobHistogram installs (or, with nil, removes) the histogram that
// receives each parallel job's wall time. Safe to call concurrently with
// Run; the record path is allocation-free.
func (p *Pool) SetJobHistogram(h *obs.Histogram) { p.jobLat.Store(h) }

// Run executes run(0..chunks-1), each chunk exactly once, sharding chunks
// across up to Limit() participants. It returns when every chunk has
// finished. Chunks must be independent: they may run concurrently and in
// any order. With Limit() <= 1 or a single chunk the caller runs everything
// inline with no synchronization.
func (p *Pool) Run(chunks int, run func(chunk int)) {
	if chunks <= 0 {
		return
	}
	lim := p.Limit()
	if lim <= 1 || chunks == 1 {
		p.stats.inlineRuns.Add(1)
		for i := 0; i < chunks; i++ {
			run(i)
		}
		return
	}
	p.stats.jobs.Add(1)
	lat := p.jobLat.Load()
	var latStart time.Time
	if lat != nil {
		latStart = time.Now()
	}
	segs := lim
	if segs > chunks {
		segs = chunks
	}
	if segs > maxSegs {
		segs = maxSegs
	}
	j := &job{
		chunks: int64(chunks),
		segs:   segs,
		segLen: (int64(chunks) + int64(segs) - 1) / int64(segs),
		run:    run,
		fin:    make(chan struct{}),
		pool:   p,
	}
	offers := lim - 1
	if offers > chunks-1 {
		offers = chunks - 1
	}
	for i := 0; i < offers; i++ {
		select {
		case p.jobs <- j:
		default:
			// Pool saturated with other jobs; the caller still completes
			// this one alone rather than blocking.
			i = offers
		}
	}
	j.work(false, 0)
	<-j.fin
	if lat != nil {
		lat.RecordDuration(time.Since(latStart))
	}
}

// For splits [0,n) into contiguous chunks of at least grain elements and
// runs body(lo, hi) for each, in parallel. The partition is a pure
// function of (n, grain, Limit()), so within a fixed parallelism setting
// every call over the same range is carved identically — re-running a
// kernel reproduces its chunk boundaries exactly.
func (p *Pool) For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	lim := p.Limit()
	// ~4 chunks per participant: enough slack for stealing to balance
	// uneven chunk costs without drowning in scheduling overhead.
	chunk := (n + 4*lim - 1) / (4 * lim)
	if chunk < grain {
		chunk = grain
	}
	chunks := (n + chunk - 1) / chunk
	p.Run(chunks, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		body(lo, hi)
	})
}

// Run is Default().Run.
func Run(chunks int, run func(chunk int)) { Default().Run(chunks, run) }

// For is Default().For.
func For(n, grain int, body func(lo, hi int)) { Default().For(n, grain, body) }

// serialCutoff is the estimated scalar-op count below which ForWork runs
// its body inline: a job this small finishes faster than its dispatch.
const serialCutoff = 1 << 17

// ForWork shards [0,n) like For when the caller's estimated work (in
// scalar ops) justifies parallel dispatch, and otherwise runs body(0, n)
// inline on the calling goroutine — the hot-path entry every kernel uses.
func ForWork(n, grain int, work int64, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if InlineWork(work) {
		body(0, n)
		return
	}
	Default().For(n, grain, body)
}

// InlineWork reports whether a job with the given estimated work (in
// scalar ops) would run inline on the caller, recording it as an inline run
// when so. Hot kernels call this BEFORE constructing their parallel-for
// closure: a func literal passed to ForWork escapes to the heap, so on the
// serial path — tiny tensors, or Limit() 1 — branching first lets the
// kernel run a named panel function directly and allocate nothing. The
// parallel branch then calls ForWork as usual, paying the closure only when
// the dispatch is real.
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
