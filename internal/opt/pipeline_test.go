package opt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ratel/internal/nn"
	"ratel/internal/tensor"
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

// stateKey is the store key of the group's first state piece: its whole
// state unless SetWindow cut it finer.
func (o *OutOfCoreAdam) stateKey(group string) string { return o.cuts[group][0].key }

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

// sameStoredState asserts the two optimizers hold bit-identical decoded
// state (P32 | M | V) for every group: want's over wantGroups, got's over
// groups, which have the same names and sizes.
func sameStoredState(t *testing.T, want, got *OutOfCoreAdam, wantGroups, groups []nn.ParamGroup) {
	t.Helper()
	for i, g := range groups {
		if !bytes.Equal(decodedState(t, want, wantGroups[i]), decodedState(t, got, g)) {
			t.Fatalf("stored state of %s differs", g.Name)
		}
	}
}

// pieceGroups builds groups of the given sizes from seed, each of tensors of
// 5000 params and then 7001, so tensors straddle the piece boundaries that
// fall every adamChunkGrain params once SetWindow has cut the groups.
func pieceGroups(seed int64, sizes ...int) []nn.ParamGroup {
	rng := rand.New(rand.NewSource(seed))
	groups := make([]nn.ParamGroup, len(sizes))
	for i, n := range sizes {
		groups[i].Name = fmt.Sprintf("g%d", i)
		for lo := 0; lo < n; {
			m := min(n-lo, 5000+2001*min(lo, 1))
			w := tensor.New(m)
			w.RandInit(rng, 0.5)
			groups[i].Params = append(groups[i].Params, nn.Param{Name: fmt.Sprintf("g%d.%d", i, lo), W: w, G: tensor.New(m)})
			lo += m
		}
	}
	return groups
}

// setGroupGrads draws every gradient of groups from seed at scale.
func setGroupGrads(groups []nn.ParamGroup, seed int64, scale float64) {
	rng := rand.New(rand.NewSource(seed))
	for _, g := range groups {
		for _, p := range g.Params {
			p.G.RandInit(rng, scale)
		}
	}
}

// windowed returns an optimizer over store whose state SetWindow cut for a
// window of depth over groups, with every group initialized.
func windowed(t *testing.T, store Store, cfg AdamConfig, depth int, groups []nn.ParamGroup) *OutOfCoreAdam {
	t.Helper()
	o := NewOutOfCoreAdam(store, cfg, "p")
	o.SetWindow(depth, groups)
	for _, g := range groups {
		if err := o.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// TestPipelinePieceBoundariesBitIdentical: groups of 1, P−1, P, P+1 and
// 3P+1 params, cut into pieces of P = adamChunkGrain with tensors straddling
// the cuts, are updated through the StatePipeline and through UpdateGroup
// exactly as the whole-group reference — flat slices staged in one pass,
// clipped by the whole group's norm, AdamStep — computes them: the decoded
// state of every piece is the reference's P32 | M | V of its range,
// WriteGroupTo's record is the reference's whole object, and the installed
// P16 is fp16 of the reference's masters, with weight decay, static loss
// scaling and per-group clipping each on and off (make test-procs repeats it
// at GOMAXPROCS 1, 2 and 4).
func TestPipelinePieceBoundariesBitIdentical(t *testing.T) {
	const P = adamChunkGrain
	sizes := []int{1, P - 1, P, P + 1, 3*P + 1}
	for variant := 0; variant < 8; variant++ {
		v := struct{ decay, scale, clip bool }{variant&1 != 0, variant&2 != 0, variant&4 != 0}
		cfg, inv, clip := DefaultAdam(), 1.0, 0.0
		if v.decay {
			cfg.WeightDecay = 0.01
		}
		if v.scale {
			inv = 1.0 / 1024
		}
		if v.clip {
			clip = 0.5
		}
		setup := func(o *OutOfCoreAdam) {
			if err := errors.Join(o.SetGradScale(1/inv), o.SetClipNorm(clip)); err != nil {
				t.Fatal(err)
			}
		}
		// The reference: each group's state as flat slices.
		refGroups := pieceGroups(7, sizes...)
		type flat struct{ p, m, v []float32 }
		ref := make([]flat, len(refGroups))
		for i, g := range refGroups {
			n := g.NumParams()
			ref[i] = flat{make([]float32, 0, n), make([]float32, n), make([]float32, n)}
			for _, p := range g.Params {
				ref[i].p = append(ref[i].p, p.W.Data...)
			}
		}
		storeUpd, storePipe := MemStore{}, &lockedStore{m: MemStore{}}
		upd, pipe := pieceGroups(7, sizes...), pieceGroups(7, sizes...)
		oUpd, oPipe := windowed(t, storeUpd, cfg, 2, upd), windowed(t, storePipe, cfg, 2, pipe)
		if oUpd.piece != P {
			t.Fatalf("piece = %d params, want %d", oUpd.piece, P)
		}
		setup(oUpd)
		setup(oPipe)
		p := NewStatePipeline(oPipe, 2, pipe)
		for step := 1; step <= 3; step++ {
			for _, gs := range [][]nn.ParamGroup{refGroups, upd, pipe} {
				setGroupGrads(gs, int64(step), 300)
			}
			for i, g := range refGroups {
				grad := make([]float32, 0, len(ref[i].p))
				for _, q := range g.Params {
					for _, gv := range q.G.Data {
						grad = append(grad, float32(float64(tensor.RoundFP16(gv))*inv))
					}
				}
				var sq float64
				for _, gv := range grad {
					sq += float64(gv) * float64(gv)
				}
				if norm := math.Sqrt(sq); clip > 0 && norm > clip {
					for j := range grad {
						grad[j] *= float32(clip / norm)
					}
				}
				if err := AdamStep(cfg, step, ref[i].p, ref[i].m, ref[i].v, grad); err != nil {
					t.Fatal(err)
				}
			}
			oUpd.BeginStep()
			oPipe.BeginStep()
			for i := range upd {
				if err := oUpd.UpdateGroup(upd[i]); err != nil {
					t.Fatal(err)
				}
				if err := p.Submit(pipe[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			for i, r := range ref {
				n := len(r.p)
				for path, o := range map[string]*OutOfCoreAdam{"UpdateGroup": oUpd, "pipeline": oPipe} {
					what := fmt.Sprintf("%+v step %d n=%d %s", v, step, n, path)
					gs := upd
					if o == oPipe {
						gs = pipe
					}
					gotP, gotM, gotV := mustState(t, o, gs[i])
					for lo := 0; lo < n; lo += P {
						hi := min(n, lo+P)
						if want := encodeState(r.p[lo:hi], r.m[lo:hi], r.v[lo:hi]); !bytes.Equal(encodeState(gotP[lo:hi], gotM[lo:hi], gotV[lo:hi]), want) {
							t.Fatalf("%s: the piece of params [%d,%d) differs from the reference's", what, lo, hi)
						}
					}
					var rec bytes.Buffer
					if _, err := o.WriteGroupTo(&rec, gs[i]); err != nil {
						t.Fatal(err)
					}
					if want := encodeState(r.p, r.m, r.v); !bytes.Equal(rec.Bytes()[:len(want)], want) {
						t.Fatalf("%s: WriteGroupTo's record is not the reference's whole object", what)
					}
					off := 0
					for _, q := range gs[i].Params {
						for j, w := range q.W.Data {
							if math.Float32bits(w) != math.Float32bits(tensor.RoundFP16(r.p[off+j])) {
								t.Fatalf("%s: installed weight %d differs", what, off+j)
							}
						}
						off += len(q.W.Data)
					}
				}
			}
		}
		p.Close()
	}
}

// encodeState is a state object of the given planes: P32 | M | V as raw
// little-endian fp32.
func encodeState(planes ...[]float32) []byte {
	var out []byte
	for _, plane := range planes {
		for _, x := range plane {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(x))
		}
	}
	return out
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
		sameStoredState(t, sync, piped, modelSync.ParamGroups(), groups)
		if now, peak := p.Buffered(); now != 0 || peak > depth {
			t.Fatalf("depth %d: %d buffers held after Flush, peak %d", depth, now, peak)
		}
		p.Close()
		p.Close() // idempotent
	}
}

// TestPipelineWindowBound: with writes held at the store, exactly the
// window's buffers' worth of piece reads is issued and no more — the state
// buffered at once, seen from the store's side (bytes of reads started minus
// writes finished) and from the pipeline's own high-water mark, stays within
// depth × 12 B × the largest group after every Wait, each step's write-back
// trailing into the next included — and none once Flush returns. (Wait alone
// leaves the write-back in flight.)
func TestPipelineWindowBound(t *testing.T) {
	const depth, P = 2, adamChunkGrain
	store := &lockedStore{m: MemStore{}}
	groups := pieceGroups(3, 3*P+1, 2*P, P+1, 5, P-1, 2*P+7)
	o := windowed(t, store, DefaultAdam(), depth, groups)
	bound := depth * StateBytes(3*P+1, true)
	pieceBytes := map[string]int{} // no piece's form changes: no master here escapes
	for _, g := range groups {
		for _, pc := range o.cut(g.Name, g.NumParams()) {
			pieceBytes[pc.key] = pc.stored()
		}
	}
	p := NewStatePipeline(o, depth, groups)
	defer p.Close()
	buffers, windowBytes := p.Window()
	if buffers != 6 || windowBytes != 6*StateBytes(P, true) || windowBytes > bound {
		t.Fatalf("window of %d buffers, %d B: want ⌊%d B ÷ %d B⌋ = 6 piece buffers", buffers, windowBytes, bound, StateBytes(P, true))
	}
	if len(pieceBytes) <= buffers+1 {
		t.Fatalf("need more than %d pieces, have %d", buffers+1, len(pieceBytes))
	}

	var mu sync.Mutex
	outstanding, reads, peakBytes, peakReads := 0, 0, 0, 0
	windowFull := make(chan struct{})
	release := make(chan struct{})
	var fullOnce, releaseOnce sync.Once
	store.readBuf = func(_ string, dst []byte) {
		mu.Lock()
		defer mu.Unlock()
		outstanding, reads = outstanding+len(dst), reads+1
		peakBytes, peakReads = max(peakBytes, outstanding), max(peakReads, reads)
		if reads == buffers {
			fullOnce.Do(func() { close(windowFull) })
		}
	}
	store.beforePut = func(key string) error {
		<-release // hold every write until the window has filled
		mu.Lock()
		outstanding, reads = outstanding-pieceBytes[key], reads-1
		mu.Unlock()
		return nil
	}
	defer releaseOnce.Do(func() { close(release) })
	for step := 1; step <= 4; step++ {
		setGroupGrads(groups, int64(step), 1)
		o.BeginStep()
		for _, g := range groups {
			if err := p.Submit(g); err != nil {
				t.Fatal(err)
			}
		}
		if step == 1 {
			select {
			case <-windowFull:
			case <-time.After(10 * time.Second):
				t.Fatal("window never filled: fewer reads than buffers were issued while writes were held")
			}
			releaseOnce.Do(func() { close(release) })
		}
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		if _, pk := p.Buffered(); pk != buffers {
			t.Fatalf("step %d: pipeline buffered peak=%d pieces after Wait, want the window's %d", step, pk, buffers)
		}
		if step%2 == 1 {
			continue // an unflushed step: the next one runs into its write-back
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		if now, _ := p.Buffered(); now != 0 {
			t.Fatalf("step %d: %d pieces buffered after Flush", step, now)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peakReads != buffers || peakBytes > bound || outstanding != 0 {
		t.Fatalf("store saw %d pieces, %d B, outstanding at once and %d B after Flush; want the window's %d pieces, at most %d B, and 0",
			peakReads, peakBytes, outstanding, buffers, bound)
	}
}

// TestPipelineFaultPerStage injects a store failure into each stage — the
// read-ahead of the first group, the read-ahead of a group mid-window with
// later groups already read, and the write-behind, and the read-ahead and
// the write-behind of a group's second piece — and checks the join that
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
		piece  int // which of the victim's pieces
		write  bool
		resub  bool // write only: the first join is the victim's next update
	}{
		{"read-ahead/first", 0, 0, false, false},
		{"read-ahead/mid-window", 2, 0, false, false},
		{"write-behind", 1, 0, true, false},
		{"write-behind-then-update", 1, 0, true, true},
		// The victim's state is cut into pieces and its second one fails.
		{"read-ahead/second-piece", 0, 1, false, false},
		{"write-behind/second-piece", 0, 1, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			store := &lockedStore{m: MemStore{}}
			var ref, o *OutOfCoreAdam
			var refGroups, groups []nn.ParamGroup
			if tc.piece == 0 {
				ref = NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "f")
				o = NewOutOfCoreAdam(store, DefaultAdam(), "f")
				refGroups, groups = initGroups(t, ref, buildModel(t)), initGroups(t, o, buildModel(t))
			} else {
				sizes := []int{2*adamChunkGrain + 3, adamChunkGrain + 1, 7}
				refGroups, groups = pieceGroups(5, sizes...), pieceGroups(5, sizes...)
				ref, o = windowed(t, MemStore{}, DefaultAdam(), 2, refGroups), windowed(t, store, DefaultAdam(), 2, groups)
			}
			victimKey := o.cuts[groups[tc.victim].Name][tc.piece].key
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
			setGroupGrads(refGroups, 1, 1)
			setGroupGrads(groups, 1, 1)
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
		pc := &p.jobs[g.Name].pieces[0]
		pc.applied <- <-pc.applied
	}
	// Nothing can say the held group's read is not about to be issued, so
	// give a read that does not wait for the token time to happen.
	time.Sleep(20 * time.Millisecond)
	if len(p.jobs[groups[0].Name].pieces[0].applied) != 0 {
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
		wireLen[o.stateKey(g.Name)] = o.StoredBytes(g.Name)[0]
	}
	if groups[len(groups)-1].NumParams() == largest {
		t.Fatal("the test needs groups of different sizes")
	}

	var mu sync.Mutex
	buffers := map[*byte]bool{}
	var misuse string
	store.readBuf = func(key string, dst []byte) {
		mu.Lock()
		defer mu.Unlock()
		if len(dst) != wireLen[key] || cap(dst) != StateBytes(largest, true) {
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
		t.Fatalf("%s was read into a buffer that is not its stored object's length cut from a largest-group buffer", misuse)
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
	sameStoredState(t, ref, o, refGroups, groups)

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
	for len(p.jobs[groups[0].Name].pieces[0].applied) == 0 {
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
