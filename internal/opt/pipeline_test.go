package opt

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ratel/internal/nn"
)

// lockedStore guards a MemStore with a mutex for the pipeline tests: the
// stages require a concurrency-safe Store (nvme.Array in the engine), and
// the bare test map is not one. Its hooks let a test fail or hold a
// transfer at a chosen point.
type lockedStore struct {
	mu sync.Mutex
	m  MemStore

	// beforeRead / beforePut, when set, run at the start of every ReadInto /
	// Put outside the lock; a non-nil error fails the transfer.
	beforeRead, beforePut func(key string) error
	// readBuf, when set, sees the buffer of every ReadInto before it is
	// filled.
	readBuf func(key string, dst []byte)
}

func (s *lockedStore) Put(key string, data []byte) error {
	if s.beforePut != nil {
		if err := s.beforePut(key); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Put(key, data)
}

func (s *lockedStore) ReadInto(key string, dst []byte) error {
	if s.readBuf != nil {
		s.readBuf(key, dst)
	}
	if s.beforeRead != nil {
		if err := s.beforeRead(key); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.ReadInto(key, dst)
}

func (s *lockedStore) drop(key string) {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}

func initGroups(t *testing.T, o *OutOfCoreAdam, m *nn.Model) []nn.ParamGroup {
	t.Helper()
	groups := m.ParamGroups()
	for _, g := range groups {
		if err := o.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	return groups
}

func sameParams(t *testing.T, want, got *nn.Model, what string) {
	t.Helper()
	a, b := want.Params(), got.Params()
	for i := range a {
		for j := range a[i].W.Data {
			if a[i].W.Data[j] != b[i].W.Data[j] {
				t.Fatalf("param %d[%d]: sync %v vs %s %v", i, j, a[i].W.Data[j], what, b[i].W.Data[j])
			}
		}
	}
}

// sameStoredState asserts the two optimizers' stores hold byte-identical
// state objects (P32 | M | V) for every group.
func sameStoredState(t *testing.T, want, got *OutOfCoreAdam, groups []nn.ParamGroup) {
	t.Helper()
	for _, g := range groups {
		var a, b bytes.Buffer
		if _, err := want.WriteGroupTo(&a, g.Name, g.NumParams()); err != nil {
			t.Fatal(err)
		}
		if _, err := got.WriteGroupTo(&b, g.Name, g.NumParams()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("stored state of %s differs", g.Name)
		}
	}
}

// goroutinesBack asserts a closed pipeline left no goroutine behind.
func goroutinesBack(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i > 1000 {
			t.Fatalf("%d goroutines after Close, %d before the pipeline started", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrefetcherBitIdentity: streaming updates through the pipeline —
// state read ahead into the window's buffers, written behind — produces
// bit-identical parameters and stored state to the synchronous UpdateGroup,
// at every window. The pipeline changes when the bytes move, not what the
// update computes.
func TestPrefetcherBitIdentity(t *testing.T) {
	for _, depth := range []int{1, 2, 4} {
		modelSync := buildModel(t)
		modelPipe := buildModel(t)
		sync := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "s")
		piped := NewOutOfCoreAdam(&lockedStore{m: MemStore{}}, DefaultAdam(), "s")
		initGroups(t, sync, modelSync)
		groups := initGroups(t, piped, modelPipe)
		p := NewStatePipeline(piped, depth, groups)

		for step := 1; step <= 3; step++ {
			setGrads(modelSync, int64(step))
			setGrads(modelPipe, int64(step))
			sync.BeginStep()
			piped.BeginStep()
			for _, g := range modelSync.ParamGroups() {
				if err := sync.UpdateGroup(g); err != nil {
					t.Fatal(err)
				}
			}
			for _, g := range groups {
				if err := p.Submit(g); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			if _, peak := p.Buffered(); peak > depth {
				t.Fatalf("depth %d: peak %d buffers after step %d", depth, peak, step)
			}
		}
		// The working weights are the oracle's as soon as Wait returns; the
		// stored state is once the trailing write-back is joined.
		sameParams(t, modelSync, modelPipe, "pipelined")
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		sameStoredState(t, sync, piped, groups)
		if now, peak := p.Buffered(); now != 0 || peak > depth {
			t.Fatalf("depth %d: %d buffers held after Flush, peak %d", depth, now, peak)
		}
		p.Close()
		p.Close() // idempotent
	}
}

// TestPipelineWindowBound: with writes held at the store, exactly depth
// groups' reads are issued and no more — at most depth groups' state is
// buffered at once, seen from the store's side (reads started minus writes
// finished) and from the pipeline's own high-water mark, after every Wait —
// and none once Flush returns. (Wait alone leaves the write-back in flight.)
func TestPipelineWindowBound(t *testing.T) {
	const depth = 2
	m := buildModel(t)
	store := &lockedStore{m: MemStore{}}
	o := NewOutOfCoreAdam(store, DefaultAdam(), "w")
	groups := initGroups(t, o, m)
	if len(groups) <= depth+1 {
		t.Fatalf("need more than %d groups, have %d", depth+1, len(groups))
	}

	var mu sync.Mutex
	outstanding, peak := 0, 0
	windowFull := make(chan struct{})
	release := make(chan struct{})
	var fullOnce, releaseOnce sync.Once
	store.beforeRead = func(string) error {
		mu.Lock()
		outstanding++
		if outstanding > peak {
			peak = outstanding
		}
		if outstanding == depth {
			fullOnce.Do(func() { close(windowFull) })
		}
		mu.Unlock()
		return nil
	}
	written := func() {
		mu.Lock()
		outstanding--
		mu.Unlock()
	}
	store.beforePut = func(string) error {
		<-release // hold every write until the window has filled
		written()
		return nil
	}

	p := NewStatePipeline(o, depth, groups)
	defer p.Close()
	defer releaseOnce.Do(func() { close(release) })
	setGrads(m, 1)
	o.BeginStep()
	for _, g := range groups {
		if err := p.Submit(g); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-windowFull:
	case <-time.After(10 * time.Second):
		t.Fatal("window never filled: fewer than depth reads were issued while writes were held")
	}
	releaseOnce.Do(func() { close(release) })
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, pk := p.Buffered(); pk != depth {
		t.Fatalf("pipeline buffered peak=%d after Wait, want %d", pk, depth)
	}
	// Every step, not just the first, stays inside the window with the
	// previous step's write-back trailing into it, and every Flush leaves
	// nothing buffered.
	for step := 2; step <= 4; step++ {
		o.BeginStep()
		for _, g := range groups {
			if err := p.Submit(g); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		if _, pk := p.Buffered(); pk != depth {
			t.Fatalf("step %d: pipeline buffered peak=%d after Wait, want %d", step, pk, depth)
		}
		if step%2 == 1 {
			continue // an unflushed step: the next one runs into its write-back
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		if now, pk := p.Buffered(); now != 0 || pk != depth {
			t.Fatalf("step %d: pipeline buffered now=%d peak=%d after Flush, want 0 and %d", step, now, pk, depth)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak != depth || outstanding != 0 {
		t.Fatalf("store saw %d groups' state outstanding at once and %d after Flush, want exactly the window %d and 0", peak, outstanding, depth)
	}
}

// TestPipelineFaultPerStage injects a store failure into each stage — the
// read-ahead of the first group, the read-ahead of a group mid-window with
// later groups already read, and the write-behind — and checks the join that
// owns the stage returns it: Wait for a read-ahead, and for a write-back,
// which trails Wait, whichever comes first of Flush and the group's next
// Submit+Wait (then failing at the read-after-write join, nothing read).
// Either way it is reported once, every wire buffer went back to the window,
// the groups that did not fail were still updated exactly, and Close leaves
// no goroutine.
func TestPipelineFaultPerStage(t *testing.T) {
	boom := errors.New("media failure")
	cases := []struct {
		name   string
		victim int // index of the group whose transfer fails
		write  bool
		resub  bool // write only: the first join is the victim's next update
	}{
		{"read-ahead/first", 0, false, false},
		{"read-ahead/mid-window", 2, false, false},
		{"write-behind", 1, true, false},
		{"write-behind-then-update", 1, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			modelRef := buildModel(t)
			m := buildModel(t)
			ref := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "f")
			store := &lockedStore{m: MemStore{}}
			o := NewOutOfCoreAdam(store, DefaultAdam(), "f")
			initGroups(t, ref, modelRef)
			groups := initGroups(t, o, m)
			victimKey := o.stateKey(groups[tc.victim].Name)
			var victimReads atomic.Int32
			store.beforeRead = func(key string) error {
				if key != victimKey {
					return nil
				}
				if victimReads.Add(1); !tc.write {
					return boom
				}
				return nil
			}
			store.beforePut = func(key string) error {
				if key == victimKey && tc.write {
					return boom
				}
				return nil
			}

			p := NewStatePipeline(o, 2, groups)
			setGrads(modelRef, 1)
			setGrads(m, 1)
			ref.BeginStep()
			o.BeginStep()
			for _, g := range groups {
				if err := p.Submit(g); err != nil {
					t.Fatal(err)
				}
			}
			err := p.Wait()
			if tc.write {
				// Adam was applied and the weights installed: the barrier is
				// clean, the failure is the trailing write-back's.
				if err != nil {
					t.Fatalf("Wait = %v with only a write-back failing", err)
				}
				if tc.resub {
					o.BeginStep()
					if err := p.Submit(groups[tc.victim]); err != nil {
						t.Fatal(err)
					}
					err = p.Wait()
					if n := victimReads.Load(); n != 1 {
						t.Fatalf("the victim's state was read %d times, want once: the update over a failed write-back must not read it", n)
					}
				} else {
					err = p.Flush()
				}
			}
			if !errors.Is(err, boom) {
				t.Fatalf("first join = %v, want %v", err, boom)
			}
			if err := p.Flush(); err != nil {
				t.Fatalf("Flush after the failure was reported = %v, want it reported once", err)
			}
			if now, _ := p.Buffered(); now != 0 {
				t.Fatalf("%d wire buffers not returned to the window", now)
			}
			// Every other group's update went through untouched by the fault
			// (and a write-back victim's weights were installed before it).
			refGroups := modelRef.ParamGroups()
			for i, g := range refGroups {
				if i == tc.victim && !tc.write {
					continue
				}
				if err := ref.UpdateGroup(g); err != nil {
					t.Fatal(err)
				}
				for pi, rp := range g.Params {
					for k, v := range rp.W.Data {
						if got := groups[i].Params[pi].W.Data[k]; got != v {
							t.Fatalf("group %s param %d[%d] = %v, want %v", g.Name, pi, k, got, v)
						}
					}
				}
			}
			// The joins left the pipeline reusable: the next ones are clean.
			store.beforeRead, store.beforePut = nil, nil
			if err := p.Wait(); err != nil {
				t.Fatalf("idle Wait = %v", err)
			}
			p.Close()
			goroutinesBack(t, baseline)
		})
	}
}

// TestPipelineReadAfterWrite is the per-group order the written token keeps
// once write-back trails the barrier: with one group's write-back held at
// the store, Wait returns, the next step's updates of every other group run
// to completion, and the held group's state is not read again until its
// write has retired. Without the token the second read races the write.
func TestPipelineReadAfterWrite(t *testing.T) {
	m := buildModel(t)
	store := &lockedStore{m: MemStore{}}
	o := NewOutOfCoreAdam(store, DefaultAdam(), "r")
	groups := initGroups(t, o, m)
	heldKey := o.stateKey(groups[0].Name)

	release := make(chan struct{})
	var writing, readDuringWrite atomic.Bool
	store.beforePut = func(key string) error {
		if key == heldKey && writing.CompareAndSwap(false, true) {
			<-release
			writing.Store(false)
		}
		return nil
	}
	store.beforeRead = func(key string) error {
		if key == heldKey && writing.Load() {
			readDuringWrite.Store(true)
		}
		return nil
	}

	p := NewStatePipeline(o, 2, groups)
	defer p.Close()
	// The held group is submitted last: an update waiting at the join keeps
	// its window token, so one submitted first would hold the others back too.
	order := append(append([]nn.ParamGroup(nil), groups[1:]...), groups[0])
	step := func() {
		t.Helper()
		setGrads(m, int64(o.Step()+1))
		o.BeginStep()
		for _, g := range order {
			if err := p.Submit(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	step()
	if err := p.Wait(); err != nil { // applied everywhere; group 0's write is held
		t.Fatal(err)
	}
	if now, _ := p.Buffered(); now < 1 {
		t.Fatal("no write-back in flight after Wait: the test holds nothing")
	}
	step()
	// Every other group's second update finishes behind the held write; the
	// held group's waits at the read-after-write join.
	for _, g := range groups[1:] {
		j := p.jobs[g.Name]
		j.applied <- <-j.applied
	}
	// Nothing can say the held group's read is not about to be issued, so
	// give a read that does not wait for the token time to happen.
	time.Sleep(20 * time.Millisecond)
	if len(p.jobs[groups[0].Name].applied) != 0 {
		t.Fatal("the held group's second update was applied before its first write-back retired")
	}
	close(release)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if readDuringWrite.Load() {
		t.Fatal("a group's state was read while its previous write-back was in flight")
	}
	if now, _ := p.Buffered(); now != 0 {
		t.Fatalf("%d buffers held after Flush", now)
	}
}

// TestPipelineWindowOwnsItsBuffers: the window is the depth buffers made at
// construction and nothing else. Groups of different sizes share them, each
// through a slice of exactly its own wire length; what a previous owner left
// in a buffer reaches no value (the store poisons every buffer's full
// capacity as it is handed over — an idle pipeline's readers each hold one,
// so that is where a test can reach them); the same depth buffers serve step
// 3 and step 8; and a Close straight after a step whose write-back failed,
// with writes still in flight, leaves every buffer home and no goroutine.
func TestPipelineWindowOwnsItsBuffers(t *testing.T) {
	const depth = 2
	baseline := runtime.NumGoroutine()
	modelRef, m := buildModel(t), buildModel(t)
	ref := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "o")
	store := &lockedStore{m: MemStore{}}
	o := NewOutOfCoreAdam(store, DefaultAdam(), "o")
	refGroups := initGroups(t, ref, modelRef)
	groups := initGroups(t, o, m)
	largest, wireLen := 0, map[string]int{}
	for _, g := range groups {
		largest = max(largest, g.NumParams())
		wireLen[o.stateKey(g.Name)] = wireBytes(g.NumParams())
	}
	if small := wireBytes(groups[len(groups)-1].NumParams()); small == wireBytes(largest) {
		t.Fatal("the test needs groups of different sizes")
	}

	var mu sync.Mutex
	buffers := map[*byte]bool{}
	var misuse string
	store.readBuf = func(key string, dst []byte) {
		mu.Lock()
		defer mu.Unlock()
		if len(dst) != wireLen[key] || cap(dst) != wireBytes(largest) {
			misuse = key
		}
		full := dst[:cap(dst)]
		buffers[&full[0]] = true
		for i := range full {
			full[i] = 0xAB
		}
	}
	p := NewStatePipeline(o, depth, groups)
	var warm map[*byte]bool
	for step := 1; step <= 8; step++ {
		setGrads(modelRef, int64(step))
		setGrads(m, int64(step))
		ref.BeginStep()
		o.BeginStep()
		for i, g := range groups {
			if err := ref.UpdateGroup(refGroups[i]); err != nil {
				t.Fatal(err)
			}
			if err := p.Submit(g); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		if step == 3 {
			mu.Lock()
			warm, buffers = buffers, map[*byte]bool{}
			mu.Unlock()
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if misuse != "" {
		t.Fatalf("%s was read into a buffer that is not its exact wire length cut from a largest-group buffer", misuse)
	}
	if len(warm) != depth || len(buffers) != depth {
		t.Fatalf("the pipeline read into %d buffers by step 3 and %d after it, want the window's %d", len(warm), len(buffers), depth)
	}
	for b := range buffers {
		if !warm[b] {
			t.Fatal("a buffer used after step 3 is not one of the window's: the pipeline allocated")
		}
	}
	mu.Unlock()
	sameParams(t, modelRef, m, "pipelined")
	sameStoredState(t, ref, o, groups)

	boom := errors.New("media failure")
	victim := o.stateKey(groups[0].Name)
	store.beforePut = func(key string) error {
		if key == victim {
			return boom
		}
		return nil
	}
	o.BeginStep()
	for _, g := range groups {
		if err := p.Submit(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait = %v with only a write-back failing", err)
	}
	p.Close()
	if len(p.window) != depth {
		t.Fatalf("%d of %d buffers home after Close", len(p.window), depth)
	}
	goroutinesBack(t, baseline)
}

// TestPipelineSubmitErrors: misuse fails at Submit, not inside a stage.
func TestPipelineSubmitErrors(t *testing.T) {
	m := buildModel(t)
	store := &lockedStore{m: MemStore{}}
	o := NewOutOfCoreAdam(store, DefaultAdam(), "x")
	groups := initGroups(t, o, m)
	p := NewStatePipeline(o, 1, groups[:1])
	defer p.Close()
	if err := p.Submit(groups[0]); err == nil {
		t.Error("Submit before BeginStep accepted")
	}
	o.BeginStep()
	if err := p.Submit(groups[1]); err == nil {
		t.Error("Submit of an unregistered group accepted")
	}
	setGrads(m, 1)
	release := make(chan struct{})
	store.beforeRead = func(string) error { <-release; return nil }
	if err := p.Submit(groups[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(groups[0]); err == nil {
		t.Error("second Submit of an in-flight group accepted")
	}
	close(release)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// An update nobody waited for that failed is reported by the next Submit.
	boom := errors.New("media failure")
	store.beforeRead = func(string) error { return boom }
	if err := p.Submit(groups[0]); err != nil {
		t.Fatal(err)
	}
	for len(p.jobs[groups[0].Name].applied) == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := p.Submit(groups[0]); !errors.Is(err, boom) {
		t.Errorf("Submit over an unjoined failed update = %v, want %v", err, boom)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush after Submit reported the failure = %v", err)
	}
}

// TestPipelineSteadyStateAllocs: a step through the pipeline allocates
// nothing — no per-step channel, goroutine or closure — at any GOMAXPROCS
// (make test-procs runs this at 1, 2 and 4). MemStore.Put copies, so the
// store here recycles its objects in place.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	m := buildModel(t)
	o := NewOutOfCoreAdam(&inPlaceStore{m: map[string][]byte{}}, DefaultAdam(), "a")
	groups := initGroups(t, o, m)
	p := NewStatePipeline(o, 2, groups)
	defer p.Close()
	setGrads(m, 1)
	step := func() {
		o.BeginStep()
		for _, g := range groups {
			if err := p.Submit(g); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm the scratch and the store's objects
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs > 0 {
		t.Fatalf("pipeline step allocates %.1f/step at GOMAXPROCS=%d, want 0", allocs, runtime.GOMAXPROCS(0))
	}
}

// inPlaceStore is a concurrency-safe Store that overwrites same-size
// objects in place, so steady-state Puts allocate nothing.
type inPlaceStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (s *inPlaceStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.m[key]; len(b) == len(data) {
		copy(b, data)
		return nil
	}
	s.m[key] = append([]byte(nil), data...)
	return nil
}

func (s *inPlaceStore) ReadInto(key string, dst []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return MemStore(s.m).ReadInto(key, dst)
}
