package opt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ratel/internal/nn"
	"ratel/internal/tensor"
)

// hookStore is a MemStore whose hooks let a test fail or hold a transfer at
// a chosen point. With async set, every transfer runs on a goroutine of its
// own and its ticket finishes when that returns, so a hook can hold one
// transfer while the pipeline goes on, and flight, when set, counts the
// transfers in flight; otherwise Start moves the object before it returns,
// as MemStore's does.
type hookStore struct {
	MemStore
	async  bool
	flight *flight

	// beforeRead / beforePut, when set, run at the start of every read /
	// write; a non-nil error fails the transfer.
	beforeRead, beforePut func(key string) error
	// readBuf, when set, sees the buffer of every read before it is filled.
	readBuf func(key string, dst []byte)
	// started, when set, sees every Start before the transfer begins; polled
	// every Done and waiting every Wait on an async ticket, as it is entered.
	started, polled, waiting func(key string, write bool)
}

func (s *hookStore) Start(key string, buf []byte, write bool) Ticket {
	if s.started != nil {
		s.started(key, write)
	}
	if !s.async {
		return moved(s.move(key, buf, write))
	}
	t := &hookTicket{s: s, key: key, write: write, done: make(chan struct{})}
	s.flight.add(key, 1)
	go func() { t.finish(s.move(key, buf, write)) }()
	return t
}

// flight counts an async hookStore's transfers of the keys it tracks that
// have started and have not been waited on: now, and at the most.
type flight struct {
	mu        sync.Mutex
	keys      map[string]bool
	now, peak int
}

// add counts one transfer of key in (1) or out (-1), if key is tracked.
func (f *flight) add(key string, n int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.keys[key] {
		f.now += n
		f.peak = max(f.peak, f.now)
	}
}

// track has f count the transfers of keys only, from a peak of zero.
func (f *flight) track(keys ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.keys, f.now, f.peak = map[string]bool{}, 0, 0
	for _, k := range keys {
		f.keys[k] = true
	}
}

// counts reports the tracked transfers in flight now and at the most.
func (f *flight) counts() (now, peak int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now, f.peak
}

// move runs the hooks, then the MemStore transfer.
func (s *hookStore) move(key string, buf []byte, write bool) error {
	before := s.beforePut
	if !write {
		if s.readBuf != nil {
			s.readBuf(key, buf)
		}
		before = s.beforeRead
	}
	if before != nil {
		if err := before(key); err != nil {
			return err
		}
	}
	return s.MemStore.Start(key, buf, write).Wait()
}

// hookTicket is an async hookStore transfer.
type hookTicket struct {
	s      *hookStore
	key    string
	write  bool
	done   chan struct{}
	err    error
	mu     sync.Mutex
	notify chan<- struct{}
}

// finish settles the transfer with err and sends on the notify channel.
func (t *hookTicket) finish(err error) {
	t.err = err
	close(t.done)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.notify != nil {
		signal(t.notify)
	}
}

func (t *hookTicket) Notify(c chan<- struct{}) {
	t.mu.Lock()
	t.notify = c
	t.mu.Unlock()
	if t.Done() {
		signal(c)
	}
}

func (t *hookTicket) Wait() error {
	if t.s.waiting != nil {
		t.s.waiting(t.key, t.write)
	}
	<-t.done
	t.s.flight.add(t.key, -1)
	return t.err
}

func (t *hookTicket) Done() bool {
	if t.s.polled != nil {
		t.s.polled(t.key, t.write)
	}
	select {
	case <-t.done:
		return true
	default:
		return false
	}
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
// AdamStep — computes them: the decoded state of every piece is the
// reference's P32 | M | V of its range, WriteGroupTo's record is the
// reference's whole object, and the installed P16 is fp16 of the reference's
// masters, with weight decay on and off (make test-procs repeats it at
// GOMAXPROCS 1, 2 and 4).
func TestPipelinePieceBoundariesBitIdentical(t *testing.T) {
	const P = adamChunkGrain
	sizes := []int{1, P - 1, P, P + 1, 3*P + 1}
	for _, decay := range []bool{false, true} {
		cfg := DefaultAdam()
		if decay {
			cfg.WeightDecay = 0.01
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
		storeUpd, storePipe := MemStore{}, MemStore{}
		upd, pipe := pieceGroups(7, sizes...), pieceGroups(7, sizes...)
		oUpd, oPipe := windowed(t, storeUpd, cfg, 2, upd), windowed(t, storePipe, cfg, 2, pipe)
		if oUpd.piece != P {
			t.Fatalf("piece = %d params, want %d", oUpd.piece, P)
		}
		p := NewStatePipeline(oPipe, 2, pipe)
		for step := 1; step <= 3; step++ {
			for _, gs := range [][]nn.ParamGroup{refGroups, upd, pipe} {
				setGroupGrads(gs, int64(step), 300)
			}
			for i, g := range refGroups {
				grad := make([]float32, 0, len(ref[i].p))
				for _, q := range g.Params {
					for _, gv := range q.G.Data {
						grad = append(grad, tensor.RoundFP16(gv))
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
					what := fmt.Sprintf("decay=%v step %d n=%d %s", decay, step, n, path)
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
		piped := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "s")
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
// window's buffers' worth of piece reads is issued and no more — the
// stream's reads and the resident set's one load — and the state held at
// once, seen from the store's side (bytes of reads started minus streamed
// writes finished: a resident piece stays held) and from the pipeline's own
// high-water mark, stays within depth × 12 B × the largest group after every
// Wait, each step's write-back trailing into the next included; once Flush
// returns only the resident set is held. (Wait alone leaves the write-back
// in flight.)
func TestPipelineWindowBound(t *testing.T) {
	const depth, P = 2, adamChunkGrain
	store := &hookStore{MemStore: MemStore{}, async: true}
	groups := pieceGroups(3, 3*P+1, 2*P, P+1, 5, P-1, 2*P+7)
	o := windowed(t, store, DefaultAdam(), depth, groups)
	bound := depth * StateBytes(3*P+1, Full)
	pieces := 0
	for _, g := range groups {
		pieces += len(o.cut(g.Name, g.NumParams()))
	}
	p := NewStatePipeline(o, depth, groups)
	defer p.Close()
	// ⌊2 × (3P+1) ÷ P⌋ = 6 buffers: a stream of max(depth+1, ⌈(3P+1) ÷ P⌉) = 4
	// and the first two pieces, both g0's, resident.
	stream, resident, windowBytes := p.Window()
	buffers := stream + resident
	if stream != 4 || resident != 2 || windowBytes != 6*StateBytes(P, Full) || windowBytes > bound {
		t.Fatalf("window of %d stream and %d resident buffers, %d B: want ⌊%d B ÷ %d B⌋ = 6 piece buffers, 4 streaming", stream, resident, windowBytes, bound, StateBytes(P, Full))
	}
	residentKey := map[string]bool{}
	for _, pc := range p.resident {
		residentKey[pc.key] = true
	}
	if pieces <= buffers+1 {
		t.Fatalf("need more than %d pieces, have %d", buffers+1, pieces)
	}

	var mu sync.Mutex
	outstanding, reads, peakBytes, peakReads := 0, 0, 0, 0
	readBytes := map[string]int{} // a piece's last read: a write-back releases that much
	windowFull := make(chan struct{})
	release := make(chan struct{})
	var fullOnce, releaseOnce sync.Once
	store.readBuf = func(key string, dst []byte) {
		mu.Lock()
		defer mu.Unlock()
		readBytes[key] = len(dst)
		outstanding, reads = outstanding+len(dst), reads+1
		peakBytes, peakReads = max(peakBytes, outstanding), max(peakReads, reads)
		if reads == buffers {
			fullOnce.Do(func() { close(windowFull) })
		}
	}
	store.beforePut = func(key string) error {
		<-release // hold every write until the window has filled
		if residentKey[key] {
			return nil // Flush's write-back: the piece stays resident
		}
		mu.Lock()
		outstanding, reads = outstanding-readBytes[key], reads-1
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
		if _, pk := p.Buffered(); pk != stream {
			t.Fatalf("step %d: pipeline buffered peak=%d pieces after Wait, want the stream's %d", step, pk, stream)
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
	// A resident piece's size moves with its escapes after the load that the
	// store counts.
	loads := readBytes[p.resident[0].key] + readBytes[p.resident[1].key]
	if held := p.ResidentBytes(); peakReads != buffers || peakBytes > bound || outstanding != loads || held != p.resident[0].stored()+p.resident[1].stored() {
		t.Fatalf("store saw %d pieces, %d B, outstanding at once and %d B after Flush; want the window's %d pieces, at most %d B, and the resident set's loads, %d B (it holds %d B)",
			peakReads, peakBytes, outstanding, buffers, bound, loads, held)
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
// no goroutine. A resident piece fails at its stages instead: the resident
// set's first load, which Wait reports, and its write-back, which Flush
// reports and the next Flush retries, landing the update.
func TestPipelineFaultPerStage(t *testing.T) {
	boom := errors.New("media failure")
	cases := []struct {
		name     string
		victim   int // index of the group whose transfer fails
		piece    int // which of the victim's pieces
		write    bool
		resub    bool // write only: the first join is the victim's next update
		resident bool // the victim is the first piece of a window with a resident set
	}{
		{"read-ahead/first", 0, 0, false, false, false},
		{"read-ahead/mid-window", 2, 0, false, false, false},
		{"write-behind", 1, 0, true, false, false},
		{"write-behind-then-update", 1, 0, true, true, false},
		// The victim's state is cut into pieces and its second one fails.
		{"read-ahead/second-piece", 0, 1, false, false, false},
		{"write-behind/second-piece", 0, 1, true, false, false},
		// The window's fourth buffer is the home of g0's first piece.
		{"resident/first-load", 0, 0, false, false, true},
		{"resident/write-back", 0, 0, true, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tensor.Parallelism() // starts the kernel pool, whose workers outlive the test
			baseline := runtime.NumGoroutine()
			store := &hookStore{MemStore: MemStore{}}
			var ref, o *OutOfCoreAdam
			var refGroups, groups []nn.ParamGroup
			if tc.piece == 0 && !tc.resident {
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
			if home := p.jobs[groups[tc.victim].Name].pieces[tc.piece].home; (home != nil) != tc.resident {
				t.Fatalf("the victim has a home buffer: %v, want %v", home != nil, tc.resident)
			}
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
			if tc.resident && tc.write {
				store.beforePut = nil // the piece stayed dirty: this Flush writes it
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
			if tc.resident && tc.write {
				sameStoredState(t, ref, o, refGroups[:1], groups[:1])
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

// TestPipelineReadAfterWrite is the per-piece order the written ticket keeps
// once write-back trails the barrier: with one group's write-back held at
// the store, Wait returns, and the next step's read of the held group is not
// started before the stage has waited on that write. The held group is
// written last in the first step and submitted first in the second, so the
// first thing the stage does in the second step is ask the held write
// whether it has finished — or, if it skipped the ticket, start the read
// while the write is held.
func TestPipelineReadAfterWrite(t *testing.T) {
	m := buildModel(t)
	store := &hookStore{MemStore: MemStore{}, async: true}
	o := NewOutOfCoreAdam(store, DefaultAdam(), "r")
	groups := initGroups(t, o, m)
	heldKey := o.stateKey(groups[0].Name)

	release, asked, readEarly := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var writeStarted, holding, waited atomic.Bool
	var askOnce, earlyOnce, releaseOnce sync.Once
	store.beforePut = func(key string) error {
		if key == heldKey && holding.CompareAndSwap(false, true) {
			<-release
		}
		return nil
	}
	store.polled = func(key string, write bool) {
		if key == heldKey && write {
			askOnce.Do(func() { close(asked) })
		}
	}
	store.waiting = func(key string, write bool) {
		if key == heldKey && write {
			waited.Store(true)
		}
	}
	store.started = func(key string, write bool) {
		switch {
		case key != heldKey:
		case write:
			writeStarted.Store(true)
		case writeStarted.Load() && !waited.Load():
			earlyOnce.Do(func() { close(readEarly) })
		}
	}

	p := NewStatePipeline(o, 2, groups)
	defer p.Close()
	defer releaseOnce.Do(func() { close(release) }) // before Close, which waits on the held write
	step := func(order []nn.ParamGroup) {
		t.Helper()
		setGrads(m, int64(o.Step()+1))
		o.BeginStep()
		for _, g := range order {
			if err := p.Submit(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	step(append(append([]nn.ParamGroup(nil), groups[1:]...), groups[0]))
	if err := p.Wait(); err != nil { // applied everywhere; group 0's write is held
		t.Fatal(err)
	}
	if now, _ := p.Buffered(); now < 1 || !writeStarted.Load() {
		t.Fatal("no write-back held after Wait: the test holds nothing")
	}
	step(groups)
	select {
	case <-asked:
	case <-readEarly:
		t.Fatal("the held group's state was read while its previous write-back was in flight")
	}
	if len(p.jobs[groups[0].Name].pieces[0].applied) != 0 {
		t.Fatal("the held group's second update was applied before its first write-back was waited on")
	}
	releaseOnce.Do(func() { close(release) })
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-readEarly:
		t.Fatal("the held group's state was read before the stage waited on its previous write-back")
	default:
	}
	if now, _ := p.Buffered(); now != 0 {
		t.Fatalf("%d buffers held after Flush", now)
	}
}

// TestPipelineWindowOwnsItsBuffers: the window is the depth buffers made at
// construction and nothing else. Groups of different sizes share them, each
// through a slice of exactly its own wire length; what a previous owner left
// in a buffer reaches no value (the store poisons every buffer's full
// capacity as a read is handed it); the same depth buffers serve step 3 and
// step 8; and a Close straight after a step whose write-back failed, with the
// next step's reads and writes still in flight, returns only once the stage
// has settled every ticket: every buffer free, and no goroutine left.
func TestPipelineWindowOwnsItsBuffers(t *testing.T) {
	const depth = 2
	tensor.Parallelism() // starts the kernel pool, whose workers outlive the test
	baseline := runtime.NumGoroutine()
	modelRef, m := buildModel(t), buildModel(t)
	ref := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "o")
	store := &hookStore{MemStore: MemStore{}, async: true}
	o := NewOutOfCoreAdam(store, DefaultAdam(), "o")
	refGroups := initGroups(t, ref, modelRef)
	groups := initGroups(t, o, m)
	largest, pieceOf := 0, map[string]*piece{}
	for _, g := range groups {
		largest = max(largest, g.NumParams())
		pieceOf[o.stateKey(g.Name)] = o.cuts[g.Name][0]
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
		if len(dst) != pieceOf[key].stored() || cap(dst) != StateBytes(largest, Full) { // read-ahead's goroutine, past the written join
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
		time.Sleep(time.Millisecond) // still writing when Close is called
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
	// The next step's updates are still reading when Close is called.
	store.beforeRead = func(string) error {
		time.Sleep(time.Millisecond)
		return nil
	}
	o.BeginStep()
	for _, g := range groups {
		if err := p.Submit(g); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if slices.ContainsFunc(p.holder[:len(p.bufs)], func(pc *pieceJob) bool { return pc != nil }) {
		t.Fatalf("buffers still held after Close: %v", p.holder)
	}
	goroutinesBack(t, baseline)
}

// TestPipelineSubmitErrors: misuse fails at Submit, not inside a stage.
func TestPipelineSubmitErrors(t *testing.T) {
	m := buildModel(t)
	store := &hookStore{MemStore: MemStore{}}
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
// (make test-procs runs this at 1, 2 and 4). A MemStore write copies, so the
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

// inPlaceStore is a Store that overwrites an object in place when its
// array has room, as an nvme.Array keeps its chunks, so steady-state writes
// allocate nothing.
type inPlaceStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (s *inPlaceStore) Start(key string, buf []byte, write bool) Ticket {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !write {
		return MemStore(s.m).Start(key, buf, false)
	}
	if b := s.m[key]; cap(b) >= len(buf) {
		s.m[key] = b[:copy(b[:len(buf)], buf)]
	} else {
		s.m[key] = append([]byte(nil), buf...)
	}
	return moved(nil)
}

// sameWeights asserts the groups' working weights are bit-identical.
func sameWeights(t *testing.T, want, got []nn.ParamGroup, what string) {
	t.Helper()
	for i, g := range want {
		for pi, p := range g.Params {
			for k, w := range p.W.Data {
				if v := got[i].Params[pi].W.Data[k]; math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("%s: %s param %d[%d] = %v, want %v", what, g.Name, pi, k, v, w)
				}
			}
		}
	}
}

// TestStateResidentSet: the window's buffers beyond the stream are the
// homes of the first-registered pieces (of the last-registered ones under
// the sweep's control). Over seven steps submitted in backward order — a
// Flush after some, two Flushes in a row, and a restore: every group's
// record of step 2 imported behind the pipeline after Drop — the pipeline
// trains bit-identically to UpdateGroup on a twin restored the same way. The
// store sees a resident piece read only by a load, once after construction
// and once after the Drop, and written only by a Flush that follows an
// update of it; it sees a streamed piece read and written once a step.
// ResidentBytes is the resident pieces' stored bytes while loaded, zero
// after Drop.
func TestStateResidentSet(t *testing.T) {
	const depth, P = 2, adamChunkGrain
	// ⌊2 × (3P+1) ÷ P⌋ = 6 buffers, a stream of max(depth+1, ⌈(3P+1) ÷ P⌉) = 4
	// and two resident pieces: g0's two, or g3's one and g2's last.
	sizes := []int{P + 5, 3*P + 1, 2 * P, 9}
	for _, last := range []bool{false, true} {
		t.Run(map[bool]string{false: "first", true: "last"}[last], func(t *testing.T) {
			sweep.last = last
			defer func() { sweep.last = false }()
			refGroups, groups := pieceGroups(11, sizes...), pieceGroups(11, sizes...)
			ref := windowed(t, MemStore{}, DefaultAdam(), depth, refGroups)
			store := &hookStore{MemStore: MemStore{}}
			o := windowed(t, store, DefaultAdam(), depth, groups)
			p := NewStatePipeline(o, depth, groups)
			defer p.Close()

			want := []string{"p/g0/state/0", "p/g0/state/1"}
			if last {
				want = []string{"p/g2/state/1", "p/g3/state/0"}
			}
			var got []string
			resident := map[string]bool{}
			for _, pc := range p.resident {
				got, resident[pc.key] = append(got, pc.key), true
			}
			if stream, n, _ := p.Window(); stream != 4 || n != 2 || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("window of %d stream buffers and resident %v, want 4 and %v", stream, got, want)
			}
			// The store counts the pipeline's transfers; quiet stops it for the
			// test's own reads and writes.
			var mu sync.Mutex
			reads, writes := map[string]int{}, map[string]int{}
			var muted atomic.Bool
			tally := func(n map[string]int) func(string) error {
				return func(key string) error {
					if !muted.Load() {
						mu.Lock()
						n[key]++
						mu.Unlock()
					}
					return nil
				}
			}
			store.beforeRead, store.beforePut = tally(reads), tally(writes)
			quiet := func(f func()) { muted.Store(true); f(); muted.Store(false) }
			// counts checks every piece's reads and writes so far: a resident
			// piece's are given, a streamed piece's are one a step.
			counts := func(what string, steps, residentReads, residentWrites int) {
				t.Helper()
				mu.Lock()
				defer mu.Unlock()
				for _, pc := range p.order {
					r, w := steps, steps
					if resident[pc.key] {
						r, w = residentReads, residentWrites
					}
					if reads[pc.key] != r || writes[pc.key] != w {
						t.Fatalf("%s: %s read %d and written %d times, want %d and %d", what, pc.key, reads[pc.key], writes[pc.key], r, w)
					}
				}
			}
			residentBytes := func() int {
				n := 0
				for _, pc := range p.resident {
					n += pc.stored()
				}
				return n
			}

			// The steps by their gradients' seed: 1–4, then 3 and 4 again from
			// the record of step 2, and 5.
			var record bytes.Buffer
			for i, seed := range []int{1, 2, 3, 4, 3, 4, 5} {
				setGroupGrads(refGroups, int64(seed), 1)
				setGroupGrads(groups, int64(seed), 1)
				ref.BeginStep()
				o.BeginStep()
				for k := len(groups) - 1; k >= 0; k-- {
					if err := ref.UpdateGroup(refGroups[k]); err != nil {
						t.Fatal(err)
					}
					if err := p.Submit(groups[k]); err != nil {
						t.Fatal(err)
					}
				}
				if err := p.Wait(); err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("step %d (gradients %d)", i+1, seed)
				sameWeights(t, refGroups, groups, what)
				if held := p.ResidentBytes(); held != residentBytes() {
					t.Fatalf("%s: ResidentBytes = %d, the resident pieces store %d", what, held, residentBytes())
				}
				switch i + 1 {
				case 2: // step 1 was not flushed: this writes back two updates as one
					if err := p.Flush(); err != nil {
						t.Fatal(err)
					}
					counts(what, 2, 1, 1)
					quiet(func() {
						sameStoredState(t, ref, o, refGroups, groups)
						for _, g := range groups {
							if _, err := o.WriteGroupTo(&record, g); err != nil {
								t.Fatal(err)
							}
						}
					})
				case 3:
					for range 2 { // the second writes nothing: no piece is dirty
						if err := p.Flush(); err != nil {
							t.Fatal(err)
						}
					}
					counts(what, 3, 1, 2)
				case 4:
					// A restore: the store is rewritten behind the pipeline, whose
					// resident copies hold step 4's state.
					if err := p.Flush(); err != nil {
						t.Fatal(err)
					}
					p.Drop()
					if held := p.ResidentBytes(); held != 0 {
						t.Fatalf("ResidentBytes = %d after Drop", held)
					}
					counts(what, 4, 1, 3)
					quiet(func() {
						for _, twin := range []struct {
							o  *OutOfCoreAdam
							gs []nn.ParamGroup
						}{{ref, refGroups}, {o, groups}} {
							r := bytes.NewReader(record.Bytes())
							for _, g := range twin.gs {
								if _, err := twin.o.ImportWire(g, r); err != nil {
									t.Fatal(err)
								}
							}
							if err := twin.o.SetStep(2); err != nil {
								t.Fatal(err)
							}
						}
					})
				case 7:
					if err := p.Flush(); err != nil {
						t.Fatal(err)
					}
					counts(what, 7, 2, 4)
					quiet(func() { sameStoredState(t, ref, o, refGroups, groups) })
				}
			}
		})
	}
}

// TestPieceTransfersAllInFlight: every batch of state transfers has all of
// its objects in flight at once on an async store — the pieces of a group
// that InitGroup stores, WriteGroupTo reads and ImportWire stores, the
// resident set's load (its reads held at the store until every one has
// started) and the resident set's write-back at Flush. A batch that waited
// on each ticket before it started the next would have one.
func TestPieceTransfersAllInFlight(t *testing.T) {
	const depth, P = 2, adamChunkGrain
	// g0 is four pieces; ⌊2 × (3P+1) ÷ P⌋ = 6 buffers make a stream of 4 and
	// g0's first two pieces resident.
	groups := pieceGroups(13, 3*P+1, 2*P, P+5, 9)
	store := &hookStore{MemStore: MemStore{}, async: true, flight: &flight{}}
	o := NewOutOfCoreAdam(store, DefaultAdam(), "p")
	o.SetWindow(depth, groups)
	var keys []string
	for _, pc := range o.cut(groups[0].Name, groups[0].NumParams()) {
		keys = append(keys, pc.key)
	}
	// peak is the most transfers of the keys in of that f had in flight at once.
	peak := func(what string, of []string, f func() error) int {
		t.Helper()
		store.flight.track(of...)
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		now, peak := store.flight.counts()
		if now != 0 {
			t.Fatalf("%s returned with %d transfers not waited on", what, now)
		}
		return peak
	}
	var record bytes.Buffer
	for _, c := range []struct {
		what string
		f    func() error
	}{
		{"InitGroup", func() error {
			for _, g := range groups {
				if err := o.InitGroup(g); err != nil {
					return err
				}
			}
			return nil
		}},
		{"WriteGroupTo", func() error { _, err := o.WriteGroupTo(&record, groups[0]); return err }},
		{"ImportWire", func() error { _, err := o.ImportWire(groups[0], &record); return err }},
	} {
		if n := peak(c.what, keys, c.f); n != len(keys) {
			t.Errorf("%s had %d of the group's %d pieces in flight at the peak", c.what, n, len(keys))
		}
	}

	p := NewStatePipeline(o, depth, groups)
	defer p.Close()
	var resident []string
	for _, pc := range p.resident {
		resident = append(resident, pc.key)
	}
	if len(resident) != 2 {
		t.Fatalf("resident %v, want two pieces", resident)
	}
	release := make(chan struct{})
	var releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	store.beforeRead = func(key string) error {
		if slices.Contains(resident, key) {
			<-release
		}
		return nil
	}
	load := func() error {
		setGroupGrads(groups, 1, 1)
		o.BeginStep()
		for k := len(groups) - 1; k >= 0; k-- {
			if err := p.Submit(groups[k]); err != nil {
				return err
			}
		}
		for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(time.Millisecond) {
			if now, _ := store.flight.counts(); now == len(resident) {
				break
			}
		}
		releaseOnce.Do(func() { close(release) })
		return p.Wait()
	}
	if n := peak("the resident load", resident, load); n != len(resident) {
		t.Errorf("the resident load had %d of %d pieces in flight at the peak", n, len(resident))
	}
	if n := peak("the resident write-back", resident, p.Flush); n != len(resident) {
		t.Errorf("Flush had %d of %d resident write-backs in flight at the peak", n, len(resident))
	}

	// A Close with the resident set's reads in flight still updates the
	// pieces, leaving no ticket unsettled.
	p.Drop()
	store.beforeRead = func(string) error {
		time.Sleep(time.Millisecond)
		return nil
	}
	o.BeginStep()
	if err := p.Submit(groups[0]); err != nil {
		t.Fatal(err)
	}
	p.Close()
	for _, pc := range p.order {
		if pc.read != nil || pc.written != nil || len(pc.applied) != 1 {
			t.Fatalf("%s after Close: read %v, write-back %v, %d applied tokens home", pc.key, pc.read, pc.written, len(pc.applied))
		}
	}
	if now, _ := store.flight.counts(); now != 0 {
		t.Fatalf("%d resident reads not waited on after Close", now)
	}
}
