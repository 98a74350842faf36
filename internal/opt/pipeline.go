package opt

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ratel/internal/nn"
)

// StatePipeline streams group updates through three persistent stages, so
// the SSD reads, the CPU Adam and the SSD writes of the model states overlap
// each other as well as the backward pass (§IV-C):
//
//	Submit ─▶ read-ahead ─▶ Adam ─▶ applied ─▶ Wait
//	          ClassOptRead   └────▶ write-behind ─▶ written ─▶ Flush, next read-ahead
//	          window buffer         ClassWriteback, buffer back in the window
//
// Read-ahead issues a group's state read the moment the group is submitted,
// into one of the window's wire buffers; the Adam stage runs the same
// stage-gradients → Adam walk → fp16-install path as UpdateGroup, in place on
// that buffer; write-behind puts it back to the store and returns the buffer
// to the window. The window is the depth buffers allocated at construction,
// so at most depth groups hold one at once, the write included.
//
// An update has two joins, each a one-slot token per group whose taking is
// the join. applied (Adam ran and P16 is installed, or the update failed) is
// what Wait, the step barrier, takes: the next forward needs the weights,
// not the state back in the store. written holds the outcome of the group's
// last write-back and is home when none is in flight; read-ahead takes it
// before reading the group again — read-after-write per group under any lane
// order, and an update over a failed write fails with its error instead of
// reading torn state — and Flush takes and returns every group's. Values are
// bit-identical to UpdateGroup's: same bytes, later durability.
//
// Submit, Wait, Flush and Close belong to one goroutine (the engine's step
// goroutine). The optimizer's Store must be safe for concurrent use —
// nvme.Array is; the bare MemStore map is not.
type StatePipeline struct {
	o *OutOfCoreAdam

	// readQ holds every registered group, so submitting never blocks the
	// backward pass.
	readQ chan *groupJob
	// adamQ and writeQ hold at most the window, so a stage never blocks
	// handing a job on.
	adamQ, writeQ chan *groupJob
	// window holds the wire buffers, each the largest group's wire size, and
	// a buffer is its own token: read-ahead receives one before it picks a
	// job, retire sends it back. Whoever holds the buffer may touch it.
	window chan []byte
	stop   chan struct{}

	readers, adam, writers sync.WaitGroup
	stopOnce               sync.Once

	jobs  map[string]*groupJob // the job of each registered group
	order []*groupJob          // the same jobs in registration order, for the joins

	buffered     atomic.Int64 // wire buffers held right now
	peakBuffered atomic.Int64
}

// groupJob is one group's trip through the pipeline. One per registered
// group, preallocated and reused, so a step allocates nothing here.
type groupJob struct {
	g     nn.ParamGroup
	n     int // g.NumParams()
	key   string
	label string // Adam span label, precomputed

	// step and cfg are the optimizer step and hyperparameters captured at
	// submit time.
	step int
	cfg  AdamConfig

	buf []byte // window buffer cut to wireBytes(n), held between read-ahead and retire
	// The two join tokens (see StatePipeline), each home with the outcome of
	// the stage it names except while an update is on its way there.
	applied, written chan error
}

// NewStatePipeline starts the stage goroutines for the given groups. depth
// is the window: how many groups' state may be buffered at once (minimum 1,
// which degenerates to one group's read → Adam → write at a time). Each I/O
// stage runs depth workers so the whole window can be on the device lanes
// in either direction.
func NewStatePipeline(o *OutOfCoreAdam, depth int, groups []nn.ParamGroup) *StatePipeline {
	if depth < 1 {
		depth = 1
	}
	p := &StatePipeline{
		o:      o,
		readQ:  make(chan *groupJob, len(groups)),
		adamQ:  make(chan *groupJob, depth),
		writeQ: make(chan *groupJob, depth),
		window: make(chan []byte, depth),
		stop:   make(chan struct{}),
		jobs:   make(map[string]*groupJob, len(groups)),
	}
	largest := 0
	for _, g := range groups {
		largest = max(largest, g.NumParams())
		j := &groupJob{
			g: g, n: g.NumParams(), key: o.stateKey(g.Name), label: o.adamLabel(g.Name),
			applied: make(chan error, 1), written: make(chan error, 1),
		}
		j.applied <- nil
		j.written <- nil
		p.jobs[g.Name] = j
		p.order = append(p.order, j)
	}
	for i := 0; i < depth; i++ {
		p.window <- make([]byte, wireBytes(largest))
	}
	p.readers.Add(depth)
	p.writers.Add(depth)
	for i := 0; i < depth; i++ {
		go p.readAhead()
		go p.writeBehind()
	}
	p.adam.Add(1)
	go p.adamStage()
	return p
}

// Submit enqueues the group's update for the current optimizer step, taking
// its applied token. It never blocks; the read is issued as soon as the
// window has room and the group's previous write-back has retired.
func (p *StatePipeline) Submit(g nn.ParamGroup) error {
	j := p.jobs[g.Name]
	switch {
	case j == nil:
		return fmt.Errorf("opt: Submit(%s): group not registered with the pipeline", g.Name)
	case p.o.step < 1:
		return fmt.Errorf("opt: Submit(%s) before BeginStep", g.Name)
	}
	select {
	case err := <-j.applied:
		if err != nil { // a failed update nobody waited for: reported, not dropped
			j.applied <- nil
			return fmt.Errorf("opt: Submit(%s): previous update failed: %w", g.Name, err)
		}
	default:
		return fmt.Errorf("opt: Submit(%s): previous update still in flight", g.Name)
	}
	j.step, j.cfg = p.o.step, p.o.cfg
	p.readQ <- j
	// Hand the CPU to read-ahead now: the backward pass never blocks between
	// submissions, so on a fully loaded host (GOMAXPROCS=1) the read would
	// otherwise not reach the device until the next preemption tick.
	runtime.Gosched()
	return nil
}

// Wait is the step barrier: it takes and returns every group's applied token
// and returns the failures joined. Write-back may still be in flight.
func (p *StatePipeline) Wait() error {
	var joined error
	for _, j := range p.order {
		joined = errors.Join(joined, <-j.applied)
		j.applied <- nil
	}
	return joined
}

// Flush is Wait plus the same join on written: nothing is in flight when it
// returns, the store holds every group's last update, and the failures — of
// write-backs that trailed an earlier Wait too — are returned joined, once.
func (p *StatePipeline) Flush() error {
	joined := p.Wait()
	for _, j := range p.order {
		joined = errors.Join(joined, <-j.written)
		j.written <- nil
	}
	return joined
}

// Buffered reports how many groups hold a wire buffer right now — zero
// after Flush — and the most that ever did at once, which never exceeds the
// window.
func (p *StatePipeline) Buffered() (now, peak int) {
	return int(p.buffered.Load()), int(p.peakBuffered.Load())
}

// Close joins the stage goroutines, stage by stage, so every job already
// past read-ahead still retires (its buffer recycled, its tokens home).
// Call Flush first: jobs still queued for read-ahead are abandoned, and only
// Flush reports a write-back's failure. Idempotent and nil-safe.
func (p *StatePipeline) Close() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() {
		close(p.stop)
		p.readers.Wait()
		close(p.adamQ)
		p.adam.Wait()
		close(p.writeQ)
		p.writers.Wait()
	})
}

func (p *StatePipeline) readAhead() {
	defer p.readers.Done()
	for {
		// The buffer comes first, so an empty window holds jobs in the queue,
		// not here.
		var buf []byte
		select {
		case buf = <-p.window:
		case <-p.stop:
			return
		}
		var j *groupJob
		select {
		case j = <-p.readQ:
		case <-p.stop:
			p.window <- buf
			return
		}
		// The read-after-write join: the group's previous write-back, which
		// may trail the step that submitted it, retires before this read is
		// issued, and its failure fails this update.
		err := <-j.written
		j.buf = buf[:wireBytes(j.n)] // exact length, as the Into codecs require
		for n := p.buffered.Add(1); ; {
			if peak := p.peakBuffered.Load(); n <= peak || p.peakBuffered.CompareAndSwap(peak, n) {
				break
			}
		}
		if err == nil {
			err = p.o.readState(j.key, j.buf, j.g.Name)
		}
		if err != nil {
			p.retire(j, nil)
			j.applied <- err
			continue
		}
		p.adamQ <- j
	}
}

func (p *StatePipeline) adamStage() {
	defer p.adam.Done()
	for j := range p.adamQ {
		if err := p.o.applyJob(j); err != nil {
			p.retire(j, nil)
			j.applied <- err
			continue
		}
		p.writeQ <- j
		j.applied <- nil
	}
}

func (p *StatePipeline) writeBehind() {
	defer p.writers.Done()
	for j := range p.writeQ {
		err := p.o.writeState(j.key, j.buf)
		if err != nil {
			err = fmt.Errorf("opt: write back %s: %w", j.g.Name, err)
		}
		p.retire(j, err)
	}
}

// retire ends a job's trip, however far it got: the wire buffer goes back
// to the window and the written token goes home carrying the write-back's
// outcome (nil when the update failed before it).
func (p *StatePipeline) retire(j *groupJob, err error) {
	buf := j.buf[:cap(j.buf)]
	j.buf = nil
	p.buffered.Add(-1)
	p.window <- buf
	j.written <- err
}

// applyJob is the Adam stage of one job, on the optimizer's shared scratch.
func (o *OutOfCoreAdam) applyJob(j *groupJob) error {
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	grad := scratch(&o.scr.grad, j.n)
	if err := o.stageGrads(grad, j.g); err != nil {
		return err
	}
	p32, err := o.adamWire(j.buf, j.cfg, j.step, grad, j.g.Name, j.label)
	if err != nil {
		return err
	}
	return o.installP16(j.g, p32)
}
