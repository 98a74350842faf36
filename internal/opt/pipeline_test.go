package opt

import (
	"errors"
	"runtime"
	"sync"
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

func (s *lockedStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Get(key)
}

func (s *lockedStore) ReadInto(key string, dst []byte) error {
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

// TestPrefetcherBitIdentity: streaming updates through the pipeline —
// state read ahead into pooled buffers, written behind — produces
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
		}
		sameParams(t, modelSync, modelPipe, "pipelined")
		for _, g := range groups {
			a, err := sync.ExportGroup(g.Name, g.NumParams())
			if err != nil {
				t.Fatal(err)
			}
			b, err := piped.ExportGroup(g.Name, g.NumParams())
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.P32 {
				if a.P32[i] != b.P32[i] || a.M[i] != b.M[i] || a.V[i] != b.V[i] {
					t.Fatalf("depth %d: stored state of %s differs at %d", depth, g.Name, i)
				}
			}
		}
		if now, peak := p.Buffered(); now != 0 || peak > depth {
			t.Fatalf("depth %d: %d buffers held after Wait, peak %d", depth, now, peak)
		}
		p.Close()
		p.Close() // idempotent
	}
}

// TestPipelineWindowBound: with writes held at the store, exactly depth
// groups' reads are issued and no more — at most depth groups' state is
// buffered at once, seen from the store's side (reads started minus writes
// finished) and from the pipeline's own high-water mark — and none once
// Wait returns.
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
	if peak != depth {
		t.Fatalf("store saw %d groups' state outstanding at once, want exactly the window %d", peak, depth)
	}
	if now, pk := p.Buffered(); now != 0 || pk != depth {
		t.Fatalf("pipeline buffered now=%d peak=%d, want 0 and %d", now, pk, depth)
	}
	// Every Wait, not just the first, leaves nothing buffered.
	for step := 2; step <= 3; step++ {
		o.BeginStep()
		for _, g := range groups {
			if err := p.Submit(g); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		if now, pk := p.Buffered(); now != 0 || pk != depth {
			t.Fatalf("step %d: pipeline buffered now=%d peak=%d after Wait, want 0 and %d", step, now, pk, depth)
		}
	}
}

// TestPipelineFaultPerStage injects a store failure into each stage — the
// read-ahead of the first group, the read-ahead of a group mid-window with
// later groups already read, and the write-behind — and checks the barrier
// returns it, every wire buffer went back to the pool, the groups that did
// not fail were still updated exactly, and Close leaves no goroutine.
func TestPipelineFaultPerStage(t *testing.T) {
	boom := errors.New("media failure")
	cases := []struct {
		name   string
		victim int // index of the group whose transfer fails
		write  bool
	}{
		{"read-ahead/first", 0, false},
		{"read-ahead/mid-window", 2, false},
		{"write-behind", 1, true},
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
			fail := func(key string) error {
				if key == victimKey {
					return boom
				}
				return nil
			}
			if tc.write {
				store.beforePut = fail
			} else {
				store.beforeRead = fail
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
			if err := p.Wait(); !errors.Is(err, boom) {
				t.Fatalf("Wait = %v, want %v", err, boom)
			}
			if now, _ := p.Buffered(); now != 0 {
				t.Fatalf("%d wire buffers not returned to the pool", now)
			}
			// Every other group's update went through untouched by the fault.
			refGroups := modelRef.ParamGroups()
			for i, g := range refGroups {
				if i == tc.victim {
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
			// The barrier left the pipeline reusable: the next Wait is clean.
			store.beforeRead, store.beforePut = nil, nil
			if err := p.Wait(); err != nil {
				t.Fatalf("idle Wait = %v", err)
			}
			p.Close()
			for i := 0; runtime.NumGoroutine() > baseline; i++ {
				if i > 1000 {
					t.Fatalf("%d goroutines after Close, %d before the pipeline started", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestPipelineSubmitErrors: misuse fails at Submit, not inside a stage.
func TestPipelineSubmitErrors(t *testing.T) {
	m := buildModel(t)
	o := NewOutOfCoreAdam(&lockedStore{m: MemStore{}}, DefaultAdam(), "x")
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
	if err := p.Submit(groups[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(groups[0]); err == nil {
		t.Error("second Submit of an in-flight group accepted")
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
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
	for i := 0; i < 3; i++ { // warm the scratch and the buffer pool
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

func (s *inPlaceStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return MemStore(s.m).Get(key)
}

func (s *inPlaceStore) ReadInto(key string, dst []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return MemStore(s.m).ReadInto(key, dst)
}
