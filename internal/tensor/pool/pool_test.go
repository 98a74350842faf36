package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunEveryChunkOnce checks each index runs exactly once across a
// spread of limits and ranges, including more chunks than participants.
func TestRunEveryChunkOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := New(workers)
		for _, n := range []int{0, 1, 2, 3, workers, 4*workers + 3, 257} {
			counts := make([]atomic.Int32, n)
			p.For(n, 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
			})
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
		p.Close()
	}
}

// TestSegmentedRunEveryChunkOnce targets the range carve's edges: ranges
// that leave the last chunk short, ranges just around the limit, limits of
// 16 and above (the old scheduler's segment cap was 16) and one-index chunks.
func TestSegmentedRunEveryChunkOnce(t *testing.T) {
	for _, workers := range []int{2, 3, 8, 16, 21} {
		p := New(workers)
		for _, n := range []int{2, workers - 1, workers, workers + 1, 9, 17, 35, 1000} {
			if n < 2 {
				continue
			}
			counts := make([]atomic.Int32, n)
			p.For(n, 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
			})
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
		p.Close()
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
	p.For(64, 1, func(lo, hi int) { n.Add(int64(hi - lo)) })
	if n.Load() != 64 {
		t.Fatalf("ran %d indices, want 64", n.Load())
	}
}

// TestNestedRun checks a chunk body may itself submit jobs (attention heads
// calling parallel matmuls) without deadlock or lost chunks.
func TestNestedRun(t *testing.T) {
	p := New(4)
	var n atomic.Int64
	p.For(8, 1, func(lo, hi int) {
		for range hi - lo {
			p.For(16, 1, func(lo, hi int) { n.Add(int64(hi - lo)) })
		}
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
			p.For(100, 1, func(lo, hi int) { n.Add(int64(hi - lo)) })
			if n.Load() != 100 {
				t.Errorf("submitter saw %d indices, want 100", n.Load())
			}
		}()
	}
	wg.Wait()
}

// TestStatsCountChunks checks the scheduling counters: as soon as For
// returns, every chunk of its parallel job is credited to exactly one of
// submitter/workers, with no worker left to credit later; inline invocations
// are counted, and ResetStats zeroes everything. How the chunks split is
// scheduling: idle workers may claim all of them before the submitter's
// first claim (TestSaturatedPoolSubmitterRunsAll checks the submitter's
// part).
func TestStatsCountChunks(t *testing.T) {
	p := New(4)
	defer p.Close()
	p.ResetStats()

	// 64 indices at limit 4 are 16 chunks of 4.
	const chunks = 16
	var ran atomic.Int64
	p.For(64, 1, func(int, int) { ran.Add(1) })
	st := p.Stats()
	if ran.Load() != chunks {
		t.Errorf("ran %d chunks, want %d", ran.Load(), chunks)
	}
	if st.Jobs != 1 {
		t.Errorf("Jobs = %d, want 1", st.Jobs)
	}
	if got := st.SubmitterChunks + st.WorkerChunks; got != chunks {
		t.Errorf("submitter+worker chunks = %d, want %d", got, chunks)
	}
	if st.InlineRuns != 0 {
		t.Errorf("InlineRuns = %d, want 0", st.InlineRuns)
	}

	// Single-chunk and limit-1 invocations run inline.
	p.For(1, 1, func(int, int) {})
	one := New(1)
	one.For(8, 1, func(int, int) {})
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

// TestForWorkCountsInline checks work under the serial cutoff is visible in
// the default pool's counters: InlineWork sends it down the caller's serial
// path and counts it as an inline run.
func TestForWorkCountsInline(t *testing.T) {
	before := DefaultStats()
	if !InlineWork(10 /* far under serialCutoff */) {
		t.Fatal("InlineWork(10) = false, want the serial path")
	}
	after := DefaultStats()
	if after.InlineRuns != before.InlineRuns+1 {
		t.Errorf("InlineRuns went %d -> %d, want +1", before.InlineRuns, after.InlineRuns)
	}
	if after.Jobs != before.Jobs {
		t.Errorf("Jobs went %d -> %d, want unchanged", before.Jobs, after.Jobs)
	}
}

// TestStatsConcurrent hammers the counters from many submitters so the
// race detector can vet them, then checks conservation of chunk counts once
// every For has returned.
func TestStatsConcurrent(t *testing.T) {
	p := New(4)
	defer p.Close()
	p.ResetStats()
	var wg sync.WaitGroup
	const submitters, chunks = 8, 16 // 32 indices at limit 4 are 16 chunks of 2
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.For(32, 1, func(int, int) {})
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

// TestSaturatedPoolSubmitterRunsAll checks a busy pool never blocks a
// caller: with every worker inside another job and the job channel full,
// For's offers all fail and the submitter runs every chunk itself.
func TestSaturatedPoolSubmitterRunsAll(t *testing.T) {
	p := New(4)
	defer p.Close()

	// Hold each of a job's four participants inside one of its four chunks:
	// the three workers are then busy until release.
	var started atomic.Int32
	release, held := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(held)
		p.For(4, 1, func(int, int) {
			started.Add(1)
			<-release
		})
	}()
	for started.Load() < 4 {
		runtime.Gosched()
	}
	// Fill the channel with offers of an empty job, which a worker finishes
	// at once.
	for len(p.jobs) < cap(p.jobs) {
		p.jobs <- offer{j: new(job)}
	}

	p.ResetStats()
	const n, chunks = 32, 16
	counts := make([]atomic.Int32, n)
	p.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			counts[i].Add(1)
		}
	})
	st := p.Stats()
	close(release)
	<-held
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
	if st.SubmitterChunks != chunks || st.WorkerChunks != 0 {
		t.Errorf("submitter ran %d chunks and the workers %d; want %d and 0", st.SubmitterChunks, st.WorkerChunks, chunks)
	}
}

// TestStaleOfferJoinsNoLaterRun checks a record is reused safely: a run's
// offers can outlive it — queued while every worker is busy, the submitter
// runs every chunk itself and returns — and the site's next run reuses the
// record. An offer of the ended run is refused: it neither claims from the
// record's cursor nor counts as a participant of a later run.
func TestStaleOfferJoinsNoLaterRun(t *testing.T) {
	p := New(4)
	defer p.Close()
	var started atomic.Int32
	release, held := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(held)
		p.For(4, 1, func(int, int) {
			started.Add(1)
			<-release
		})
	}()
	for started.Load() < 4 {
		runtime.Gosched()
	}

	const n = 32
	counts := make([]atomic.Int32, n)
	site := NewSite(func(c []atomic.Int32, lo, hi int) {
		for i := lo; i < hi; i++ {
			c[i].Add(1)
		}
	})
	run(p, site, n, 1, counts)
	stale := <-p.jobs // one of the ended run's offers, queued behind the busy workers
	run(p, site, n, 1, counts)
	if len(site.free) != 1 || &site.free[0].job != stale.j {
		t.Fatalf("site holds %d records; want the one record both runs used", len(site.free))
	}
	next, state := stale.j.next.Load(), stale.j.state.Load()
	stale.j.join(stale.gen)
	if got := stale.j.next.Load(); got != next {
		t.Errorf("a stale offer claimed from the record's cursor: %d -> %d", next, got)
	}
	if got := stale.j.state.Load(); got != state || uint32(got) != 0 {
		t.Errorf("record state %#x after a stale offer, was %#x; want no participant", got, state)
	}
	close(release)
	<-held
	for i := range counts {
		if got := counts[i].Load(); got != 2 {
			t.Fatalf("index %d ran %d times over two runs", i, got)
		}
	}
}

// TestCloseIdempotent checks Close retires the workers exactly once: a
// second (or concurrent) Close must not double-close the jobs channel,
// closed workers drain without panicking, Close returns only once a worker
// still inside a job has left it, and no worker outlives the pool.
func TestCloseIdempotent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := New(4)
	const n = 8
	counts := make([]atomic.Int32, n)
	p.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			counts[i].Add(1)
		}
	})

	// Hold a worker inside a job: the submitter blocks in chunk 0, so a
	// worker has chunk 1 when both have started.
	var started atomic.Int32
	release := make(chan struct{})
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		p.For(2, 1, func(int, int) {
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

	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i > 1000 {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
