package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunEveryChunkOnce checks each chunk index runs exactly once across a
// spread of limits and chunk counts, including more chunks than workers.
func TestRunEveryChunkOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := New(workers)
		for _, chunks := range []int{0, 1, 2, 3, workers, 4*workers + 3, 257} {
			counts := make([]atomic.Int32, chunks)
			p.Run(chunks, func(c int) { counts[c].Add(1) })
			for c := range counts {
				if got := counts[c].Load(); got != 1 {
					t.Fatalf("workers=%d chunks=%d: chunk %d ran %d times", workers, chunks, c, got)
				}
			}
		}
	}
}

// TestForCoversRangeExactly checks the [0,n) partition: every index covered
// once, chunk bounds ordered, grain respected.
func TestForCoversRangeExactly(t *testing.T) {
	p := New(4)
	for _, n := range []int{1, 2, 5, 100, 4096, 4097, 100_003} {
		for _, grain := range []int{1, 7, 1024} {
			var mu sync.Mutex
			seen := make([]int32, n)
			p.For(n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d grain=%d: bad chunk [%d,%d)", n, grain, lo, hi)
					return
				}
				mu.Lock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu.Unlock()
			})
			for i, got := range seen {
				if got != 1 {
					t.Fatalf("n=%d grain=%d: index %d covered %d times", n, grain, i, got)
				}
			}
		}
	}
}

// TestForPartitionIsDeterministic re-runs the same For and checks identical
// chunk boundaries — the reproducibility contract kernels rely on.
func TestForPartitionIsDeterministic(t *testing.T) {
	p := New(3)
	collect := func() map[[2]int]bool {
		var mu sync.Mutex
		chunks := map[[2]int]bool{}
		p.For(10_000, 16, func(lo, hi int) {
			mu.Lock()
			chunks[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		return chunks
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("partition changed between runs: %d vs %d chunks", len(a), len(b))
	}
	for c := range a {
		if !b[c] {
			t.Fatalf("chunk %v missing from second run", c)
		}
	}
}

// TestSetLimitGrowsAndClamps checks limit clamping and that raising the
// limit still executes correctly (workers grown on demand).
func TestSetLimitGrowsAndClamps(t *testing.T) {
	p := New(1)
	if got := p.Limit(); got != 1 {
		t.Fatalf("Limit() = %d, want 1", got)
	}
	p.SetLimit(0)
	if got := p.Limit(); got != 1 {
		t.Fatalf("Limit() after SetLimit(0) = %d, want 1", got)
	}
	p.SetLimit(8)
	if got := p.Limit(); got != 8 {
		t.Fatalf("Limit() = %d, want 8", got)
	}
	var n atomic.Int64
	p.Run(64, func(int) { n.Add(1) })
	if n.Load() != 64 {
		t.Fatalf("ran %d chunks, want 64", n.Load())
	}
}

// TestNestedRun checks a chunk body may itself submit jobs (attention heads
// calling parallel matmuls) without deadlock or lost chunks.
func TestNestedRun(t *testing.T) {
	p := New(4)
	var n atomic.Int64
	p.Run(8, func(int) {
		p.Run(16, func(int) { n.Add(1) })
	})
	if n.Load() != 8*16 {
		t.Fatalf("nested chunks ran %d times, want %d", n.Load(), 8*16)
	}
}

// TestConcurrentSubmitters checks many goroutines sharing one pool (the
// engine's optimizer workers) each see their own job complete fully.
func TestConcurrentSubmitters(t *testing.T) {
	p := New(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n atomic.Int64
			p.Run(100, func(int) { n.Add(1) })
			if n.Load() != 100 {
				t.Errorf("submitter saw %d chunks, want 100", n.Load())
			}
		}()
	}
	wg.Wait()
}

// TestStatsCountChunks checks the scheduling counters: every chunk of a
// parallel job is credited to exactly one of submitter/workers, inline
// invocations are counted, and ResetStats zeroes everything.
func TestStatsCountChunks(t *testing.T) {
	p := New(4)
	p.ResetStats()

	const chunks = 64
	p.Run(chunks, func(int) {})
	st := p.Stats()
	if st.Jobs != 1 {
		t.Errorf("Jobs = %d, want 1", st.Jobs)
	}
	if got := st.SubmitterChunks + st.WorkerChunks; got != chunks {
		t.Errorf("submitter+worker chunks = %d, want %d", got, chunks)
	}
	if st.SubmitterChunks == 0 {
		t.Error("submitter claimed no chunks; it must always participate")
	}
	if st.InlineRuns != 0 {
		t.Errorf("InlineRuns = %d, want 0", st.InlineRuns)
	}

	// Single-chunk and limit-1 invocations run inline.
	p.Run(1, func(int) {})
	one := New(1)
	one.Run(8, func(int) {})
	if got := p.Stats().InlineRuns; got != 1 {
		t.Errorf("single-chunk InlineRuns = %d, want 1", got)
	}
	if got := one.Stats().InlineRuns; got != 1 {
		t.Errorf("limit-1 InlineRuns = %d, want 1", got)
	}
	if got := one.Stats().Jobs; got != 0 {
		t.Errorf("limit-1 pool dispatched %d jobs, want 0", got)
	}

	p.ResetStats()
	if got := p.Stats(); got != (Stats{}) {
		t.Errorf("after ResetStats: %+v", got)
	}
}

// TestForWorkCountsInline checks the serial-cutoff path is visible in the
// default pool's counters (ForWork always routes through Default()).
func TestForWorkCountsInline(t *testing.T) {
	before := DefaultStats()
	ForWork(100, 1, 10 /* far under serialCutoff */, func(lo, hi int) {})
	after := DefaultStats()
	if after.InlineRuns != before.InlineRuns+1 {
		t.Errorf("InlineRuns went %d -> %d, want +1", before.InlineRuns, after.InlineRuns)
	}
	if after.Jobs != before.Jobs {
		t.Errorf("Jobs went %d -> %d, want unchanged", before.Jobs, after.Jobs)
	}
}

// TestStatsConcurrent hammers the counters from many submitters so the
// race detector can vet them, then checks conservation of chunk counts.
func TestStatsConcurrent(t *testing.T) {
	p := New(4)
	p.ResetStats()
	var wg sync.WaitGroup
	const submitters, chunks = 8, 32
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Run(chunks, func(int) {})
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Jobs != submitters {
		t.Errorf("Jobs = %d, want %d", st.Jobs, submitters)
	}
	if got := st.SubmitterChunks + st.WorkerChunks; got != submitters*chunks {
		t.Errorf("total chunks = %d, want %d", got, submitters*chunks)
	}
}

// TestSegmentedRunEveryChunkOnce targets the segment carve specifically:
// chunk counts that leave the last segment short or entirely empty
// (segs*segLen > chunks), limits above maxSegs, and one-chunk segments.
func TestSegmentedRunEveryChunkOnce(t *testing.T) {
	for _, workers := range []int{2, 3, 8, maxSegs, maxSegs + 5} {
		p := New(workers)
		for _, chunks := range []int{2, workers - 1, workers, workers + 1, 9, maxSegs + 1, 2*maxSegs + 3, 1000} {
			if chunks < 2 {
				continue
			}
			counts := make([]atomic.Int32, chunks)
			p.Run(chunks, func(c int) { counts[c].Add(1) })
			for c := range counts {
				if got := counts[c].Load(); got != 1 {
					t.Fatalf("workers=%d chunks=%d: chunk %d ran %d times", workers, chunks, c, got)
				}
			}
		}
	}
}

// TestSubmitterDrainsAllSegments checks stealing keeps a caller live on a
// pool whose workers never pick the job up: with every offer rejected the
// submitter must walk all segments itself, and those cross-segment claims
// show up in StolenChunks.
func TestSubmitterDrainsAllSegments(t *testing.T) {
	p := New(4)
	p.ResetStats()

	// Saturate the job channel with an already-finished job so Run's
	// non-blocking offers fail and no worker joins.
	dead := &job{chunks: 1, segs: 1, segLen: 1, run: func(int) {}, fin: make(chan struct{}), pool: p}
	dead.cursors[0].c.Store(1)
	dead.done.Store(1)
	for i := 0; i < cap(p.jobs); i++ {
		select {
		case p.jobs <- dead:
		default:
			t.Fatal("could not saturate job channel")
		}
	}

	const chunks = 32
	counts := make([]atomic.Int32, chunks)
	p.Run(chunks, func(c int) { counts[c].Add(1) })
	for c := range counts {
		if got := counts[c].Load(); got != 1 {
			t.Fatalf("chunk %d ran %d times", c, got)
		}
	}
	st := p.Stats()
	if st.SubmitterChunks != chunks {
		t.Errorf("SubmitterChunks = %d, want %d (no worker should have joined)", st.SubmitterChunks, chunks)
	}
	// The submitter owns segment 0; all other segments' chunks are steals.
	if st.StolenChunks == 0 {
		t.Error("StolenChunks = 0, want >0: the solo submitter must steal the other segments")
	}

	// Drain what is left of the saturation. The pool's own workers have been
	// receiving the dead jobs all along (each is a no-op for them), so the
	// channel may hold fewer than were sent: a blocking receive per job sent
	// hung this test about one run in ten.
	for len(p.jobs) > 0 {
		select {
		case <-p.jobs:
		default:
		}
	}
}

// TestStolenChunksConservation checks the stolen counter never exceeds the
// claimed total and that an idle-pool parallel run records the job.
func TestStolenChunksConservation(t *testing.T) {
	p := New(4)
	p.ResetStats()
	for i := 0; i < 50; i++ {
		p.Run(64, func(int) {})
	}
	st := p.Stats()
	if total := st.SubmitterChunks + st.WorkerChunks; st.StolenChunks > total {
		t.Errorf("StolenChunks %d exceeds total claimed %d", st.StolenChunks, total)
	}
}

// TestCloseIdempotent checks Close retires the workers exactly once: a
// second (or concurrent) Close must not double-close the jobs channel,
// closed workers drain without panicking, Close returns only once a worker
// still inside a job has left it, and no worker outlives the pool.
func TestCloseIdempotent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := New(4)
	const chunks = 8
	counts := make([]atomic.Int32, chunks)
	p.Run(chunks, func(c int) { counts[c].Add(1) })

	// Hold a worker inside a job: the submitter blocks in chunk 0, so a
	// worker has chunk 1 when both have started.
	var started atomic.Int32
	release := make(chan struct{})
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		p.Run(2, func(int) {
			started.Add(1)
			<-release
		})
	}()
	for started.Load() < 2 {
		runtime.Gosched()
	}

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
	}
	closed := make(chan struct{})
	go func() { wg.Wait(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a worker was still inside a job")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	<-ran
	p.Close() // again, after the workers are gone

	for c := range counts {
		if got := counts[c].Load(); got != 1 {
			t.Fatalf("chunk %d ran %d times", c, got)
		}
	}
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i > 1000 {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
