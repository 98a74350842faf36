package opt

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ratel/internal/join"
	"ratel/internal/nn"
)

// StatePipeline streams group updates through three persistent stages, so
// the SSD reads, the CPU Adam and the SSD writes of the model states overlap
// each other as well as the backward pass (§IV-C):
//
//	Submit ─▶ read-ahead ─▶ Adam ─▶ applied ─▶ Wait
//	          ReadInto       └────▶ write-behind ─▶ written ─▶ Flush, next read-ahead
//	          window buffer         Put, buffer back in the window
//
// The unit of every stage is a state piece (OutOfCoreAdam): Submit enqueues
// the group's pieces in order. Read-ahead issues a piece's state read, sized
// by the form the piece is stored in, as soon as the window has a buffer for
// it; the Adam stage runs the same stage-gradients → Adam walk (which
// installs P16) path as UpdateGroup on the piece, in place on that buffer,
// and records the form it seals the piece in; write-behind puts it back to
// the store and returns the buffer to the window. The window is the byte
// budget of depth whole groups — depth × the largest group's state in full
// form — cut into as many piece-sized buffers as fit, allocated at
// construction, with one read-ahead and one write-behind worker per buffer
// so the whole window can be on the device lanes in either direction. A
// group's last writes therefore share the lanes with the next step's first
// reads instead of holding a whole group's buffer until they retire.
//
// An update has two joins, each a one-slot token per piece whose taking is
// the join. applied (Adam ran and the piece's P16 is installed, or the
// update failed) is what Wait, the step barrier, takes: the next forward
// needs the weights, not the state back in the store. written holds the
// outcome of the piece's last write-back and is home when none is in
// flight; read-ahead takes it before reading the piece again —
// read-after-write per piece under any lane order, and an update over a
// failed write fails with its error instead of reading torn state — and
// Flush takes and returns every piece's. Values are bit-identical to
// UpdateGroup's: same bytes, later durability.
//
// Submit, Wait, Flush and Close belong to one goroutine (the engine's step
// goroutine). The optimizer's Store must be safe for concurrent use, as
// nvme.Array and MemStore are.
type StatePipeline struct {
	o *OutOfCoreAdam

	// readQ holds every registered piece, so submitting never blocks the
	// backward pass.
	readQ chan *pieceJob
	// adamQ and writeQ hold at most the window, so a stage never blocks
	// handing a job on.
	adamQ, writeQ chan *pieceJob
	// window holds the wire buffers, each the largest piece's wire size, and
	// a buffer is its own token: read-ahead receives one before it picks a
	// job, retire sends it back. Whoever holds the buffer may touch it.
	window   chan []byte
	bufBytes int // each window buffer's size
	stop     chan struct{}

	readers, adam, writers join.Group
	stopOnce               sync.Once

	jobs  map[string]*groupJob // the job of each registered group
	order []*pieceJob          // every group's pieces in registration order, for the joins

	buffered     atomic.Int64 // wire buffers held right now
	peakBuffered atomic.Int64
}

// groupJob is one group's trip through the pipeline, as its pieces. One per
// registered group, preallocated and reused, so a step allocates nothing
// here.
type groupJob struct {
	g     nn.ParamGroup
	label string // Adam span label, precomputed

	// step and cfg are the optimizer step and the hyperparameters captured
	// at submit time.
	step int
	cfg  AdamConfig

	pieces []pieceJob
}

// pieceJob is one piece's trip.
type pieceJob struct {
	*piece
	grp *groupJob

	buf []byte // window buffer cut to the piece's stored object, held between read-ahead and retire
	// The two join tokens (see StatePipeline), each home with the outcome of
	// the stage it names except while an update is on its way there.
	applied, written chan error
}

// NewStatePipeline starts the stage goroutines for the given groups, whose
// state o has cut into pieces. depth is the window in whole groups (minimum
// 1): it holds ⌊depth × largest group ÷ piece⌋ piece buffers, with one
// read-ahead and one write-behind worker each.
func NewStatePipeline(o *OutOfCoreAdam, depth int, groups []nn.ParamGroup) *StatePipeline {
	home := func() chan error { c := make(chan error, 1); c <- nil; return c }
	// size is the largest piece: every group's first.
	largest, size, pieces := 0, 0, 0
	jobs := make([]groupJob, len(groups))
	for i, g := range groups {
		cut := o.cut(g.Name, g.NumParams())
		largest, size, pieces = max(largest, g.NumParams()), max(size, cut[0].n), pieces+len(cut)
		j := &jobs[i]
		j.g, j.label = g, o.adamLabel(g.Name)
		for _, pc := range cut {
			j.pieces = append(j.pieces, pieceJob{piece: pc, grp: j, applied: home(), written: home()})
		}
	}
	buffers := max(depth, 1)
	if size > 0 {
		buffers = buffers * largest / size
	}
	p := &StatePipeline{
		o:        o,
		readQ:    make(chan *pieceJob, pieces),
		adamQ:    make(chan *pieceJob, buffers),
		writeQ:   make(chan *pieceJob, buffers),
		window:   make(chan []byte, buffers),
		bufBytes: StateBytes(size, true),
		stop:     make(chan struct{}),
		jobs:     make(map[string]*groupJob, len(groups)),
	}
	for i := range jobs {
		j := &jobs[i]
		p.jobs[j.g.Name] = j
		for k := range j.pieces {
			p.order = append(p.order, &j.pieces[k])
		}
	}
	for i := 0; i < buffers; i++ {
		p.window <- make([]byte, p.bufBytes)
		p.readers.Go(p.readAhead)
		p.writers.Go(p.writeBehind)
	}
	p.adam.Go(p.adamStage)
	return p
}

// Submit enqueues the group's update for the current optimizer step, piece
// by piece in order, taking every piece's applied token. It never blocks;
// each read is issued as soon as the window has a buffer and the piece's
// previous write-back has retired.
func (p *StatePipeline) Submit(g nn.ParamGroup) error {
	j := p.jobs[g.Name]
	switch {
	case j == nil:
		return fmt.Errorf("opt: Submit(%s): group not registered with the pipeline", g.Name)
	case p.o.step < 1:
		return fmt.Errorf("opt: Submit(%s) before BeginStep", g.Name)
	}
	// Only this goroutine takes applied tokens, so ones home now stay home.
	for i := range j.pieces {
		if len(j.pieces[i].applied) == 0 {
			return fmt.Errorf("opt: Submit(%s): previous update still in flight", g.Name)
		}
	}
	var failed error
	for i := range j.pieces {
		failed = errors.Join(failed, <-j.pieces[i].applied)
	}
	if failed != nil { // a failed update nobody waited for: reported, not dropped
		for i := range j.pieces {
			j.pieces[i].applied <- nil
		}
		return fmt.Errorf("opt: Submit(%s): previous update failed: %w", g.Name, failed)
	}
	j.step, j.cfg = p.o.step, p.o.cfg
	for i := range j.pieces {
		p.readQ <- &j.pieces[i]
	}
	// Hand the CPU to read-ahead now: the backward pass never blocks between
	// submissions, so on a fully loaded host (GOMAXPROCS=1) the reads would
	// otherwise not reach the device until the next preemption tick.
	runtime.Gosched()
	return nil
}

// Wait is the step barrier: it takes and returns every piece's applied
// token and returns the failures joined. Write-back may still be in flight.
func (p *StatePipeline) Wait() error {
	var joined error
	for _, pc := range p.order {
		joined = errors.Join(joined, <-pc.applied)
		pc.applied <- nil
	}
	return joined
}

// Flush is Wait plus the same join on written: nothing is in flight when it
// returns, the store holds every piece's last update, and the failures — of
// write-backs that trailed an earlier Wait too — are returned joined, once.
func (p *StatePipeline) Flush() error {
	joined := p.Wait()
	for _, pc := range p.order {
		joined = errors.Join(joined, <-pc.written)
		pc.written <- nil
	}
	return joined
}

// Buffered reports how many pieces — not groups, not bytes — hold a wire
// buffer right now, zero after Flush, and the most that ever did at once,
// which never exceeds the window's buffers.
func (p *StatePipeline) Buffered() (now, peak int) {
	return int(p.buffered.Load()), int(p.peakBuffered.Load())
}

// Window reports the window's piece buffers and their bytes in all, which
// never exceed depth × 12 B × the largest group: a piece holds its bytes in
// one buffer, so the state buffered at once is at most peak × bytes/buffers.
func (p *StatePipeline) Window() (buffers, bytes int) {
	return cap(p.window), cap(p.window) * p.bufBytes
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
	for {
		// The buffer comes first, so an empty window holds jobs in the queue,
		// not here.
		var buf []byte
		select {
		case buf = <-p.window:
		case <-p.stop:
			return
		}
		var pc *pieceJob
		select {
		case pc = <-p.readQ:
		case <-p.stop:
			p.window <- buf
			return
		}
		// The read-after-write join: the piece's previous write-back, which
		// may trail the step that submitted it, retires before this read is
		// issued, and its failure fails this update.
		err := <-pc.written
		pc.buf = buf[:pc.stored()] // the form the last write-back recorded
		for n := p.buffered.Add(1); ; {
			if peak := p.peakBuffered.Load(); n <= peak || p.peakBuffered.CompareAndSwap(peak, n) {
				break
			}
		}
		if err == nil {
			err = p.o.readState(pc.key, pc.buf)
		}
		if err != nil {
			p.retire(pc, nil)
			pc.applied <- err
			continue
		}
		p.adamQ <- pc
	}
}

func (p *StatePipeline) adamStage() {
	for pc := range p.adamQ {
		if err := p.o.applyPiece(pc); err != nil {
			p.retire(pc, nil)
			pc.applied <- err
			continue
		}
		p.writeQ <- pc
		pc.applied <- nil
	}
}

func (p *StatePipeline) writeBehind() {
	for pc := range p.writeQ {
		err := p.o.store.Put(pc.key, pc.buf)
		if err != nil {
			err = fmt.Errorf("opt: write back %s: %w", pc.key, err)
		}
		p.retire(pc, err)
	}
}

// retire ends a piece's trip, however far it got: the wire buffer goes back
// to the window and the written token goes home carrying the write-back's
// outcome (nil when the update failed before it).
func (p *StatePipeline) retire(pc *pieceJob, err error) {
	buf := pc.buf[:cap(pc.buf)]
	pc.buf = nil
	p.buffered.Add(-1)
	p.window <- buf
	pc.written <- err
}

// applyPiece is the Adam stage of one piece, on the optimizer's shared
// scratch: the buffer is cut to the object the piece will be written as, in
// the form the stage has recorded.
func (o *OutOfCoreAdam) applyPiece(pc *pieceJob) error {
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	j := pc.grp
	obj, err := o.applyTo(pc.buf, j.g, pc.piece, j.cfg, j.step, j.label)
	if err == nil {
		pc.buf = obj
	}
	return err
}
