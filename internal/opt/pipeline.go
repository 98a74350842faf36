package opt

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"ratel/internal/join"
	"ratel/internal/nn"
)

// StatePipeline streams group updates through one goroutine, the Adam stage,
// which owns every state transfer the pipeline makes: it moves each state
// piece (OutOfCoreAdam) as a ticket on the store, so the SSD reads, the CPU
// Adam and the SSD writes of the model states overlap each other and the
// backward pass (§IV-C):
//
//	Submit ─▶ stage: Start read ─▶ Adam ─▶ Start write ─▶ applied ─▶ Wait
//	          stream buffer, held until the write is waited on ─▶ Flush
//	          resident piece: its home, read only if empty ─▶ Flush writes
//
// The stage starts a piece's read, sized by its stored form, as soon as the
// stream has a buffer for it; when the read has finished it runs
// UpdateGroup's stage-gradients → Adam walk (which installs P16) in place on
// the buffer and starts the write-back, which keeps the buffer until another
// read wants it or Flush, so a group's last writes share the lanes with the
// next step's first reads. Every ticket sends on wake when it finishes, and
// the stage, out of work, waits there, never on one ticket.
//
// The window is the byte budget of depth whole groups — depth × the largest
// group's state in Full form — cut into piece-sized buffers at construction.
// The stream keeps S = max(depth+1, ⌈largest group ÷ piece⌉) of them (or
// all): one group on the lanes, never fewer than the activation ring's
// depth+1. Every other buffer is the home of one piece for good, in
// registration order — the embedding's, then block 0's: a step's last
// gradients. A resident piece is a streamed one whose buffer is its home:
// the stage starts its read only when the home does not hold it, updates it
// there when the read is done (at once, when no read was needed) and leaves
// it dirty; a step never writes it back. Flush has the stage start the
// dirty ones' write-backs and wait on them with the stream's, and Drop
// discards the copies.
//
// An update has two joins. applied, a one-slot token per piece whose taking
// is the join (Adam ran and P16 is installed, or the update failed), is what
// Wait, the step barrier, takes: the next forward needs the weights, not the
// state back in the store. written, the ticket of the piece's write-back, is
// waited on before the piece's next read — read-after-write under any lane
// order, and an update over a failed write fails with its error instead of
// reading torn state — or at Flush. Values are UpdateGroup's, bit for bit.
//
// Submit, Wait, Flush, Drop and Close belong to one goroutine (the engine's
// step goroutine).
type StatePipeline struct {
	o *OutOfCoreAdam

	// submitted carries Submit's pieces to the stage (room for all, so it
	// never blocks the backward pass) and Flush's nil; Close closes it. wake
	// is where they, and every ticket the stage starts, signal the stage, and
	// flush the stage's reply to Flush.
	submitted   chan *pieceJob
	wake, flush chan struct{}
	stage       join.Group
	closed      bool

	// The stage's own: the stream's buffers; the piece holding each (nil:
	// free), then the resident pieces, each holding its home for good; and
	// the streamed pieces waiting for a read, in order.
	bufs     [][]byte
	holder   []*pieceJob
	waiting  []*pieceJob
	bufBytes int // each buffer's size, the largest piece's Full form

	// resident are the pieces with a buffer of their own (pieceJob.home), in
	// registration order: holder past the stream's. residentBytes is the
	// stored bytes their homes hold. Drop touches them once Flush has joined
	// the stage.
	resident      []*pieceJob
	residentBytes atomic.Int64

	jobs  map[string]*groupJob // the job of each registered group
	order []*pieceJob          // every group's pieces in registration order, for the joins

	buffered     atomic.Int64 // stream buffers held right now
	peakBuffered atomic.Int64
}

// errClosed fails the updates a Close leaves unstarted.
var errClosed = errors.New("opt: state pipeline closed")

// sweep overrides the window's split for the stream-size sweep
// (EXPERIMENTS.md, "The state window is a cache"): stream, when non-zero, is
// the stream's buffers, and last takes the resident set from the
// last-registered pieces instead of the first. Only this package's tests set
// it.
var sweep struct {
	stream int
	last   bool
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

	// buf is the stream buffer held from its read's Start to its write-back's
	// Wait, or a resident piece's home from its read's Start while the home
	// holds it. home is a resident piece's own buffer (nil for a streamed
	// one), and dirty says it holds an update the store does not.
	buf   []byte
	home  []byte
	dirty bool
	// applied is the join token Wait takes, home with the outcome of the
	// piece's last update except while one is on its way. read and written
	// are the tickets of its transfers until the stage waits on them, and
	// wrote the failure of its last write-back until its next read or Flush.
	applied       chan error
	read, written Ticket
	wrote         error
}

// NewStatePipeline starts the Adam stage for the given groups, whose state o
// has cut into pieces. depth is the window in whole groups (minimum 1): it
// holds ⌊depth × largest group ÷ piece⌋ piece buffers, the stream's and the
// resident set's.
func NewStatePipeline(o *OutOfCoreAdam, depth int, groups []nn.ParamGroup) *StatePipeline {
	// size is the largest piece: every group's first.
	largest, size, pieces := 0, 0, 0
	jobs := make([]groupJob, len(groups))
	for i, g := range groups {
		cut := o.cut(g.Name, g.NumParams())
		largest, size, pieces = max(largest, g.NumParams()), max(size, cut[0].n), pieces+len(cut)
		j := &jobs[i]
		j.g, j.label = g, o.adamLabel(g.Name)
		for _, pc := range cut {
			applied := make(chan error, 1)
			applied <- nil
			j.pieces = append(j.pieces, pieceJob{piece: pc, grp: j, applied: applied})
		}
	}
	buffers, stream := max(depth, 1), max(depth, 1)+1
	if size > 0 {
		buffers, stream = buffers*largest/size, max(stream, (largest+size-1)/size)
	}
	if sweep.stream > 0 {
		stream = sweep.stream
	}
	stream = min(stream, buffers)
	p := &StatePipeline{
		o:         o,
		submitted: make(chan *pieceJob, pieces+1),
		wake:      make(chan struct{}, 1),
		flush:     make(chan struct{}),
		holder:    make([]*pieceJob, stream),
		waiting:   make([]*pieceJob, 0, pieces),
		bufBytes:  StateBytes(size, Full),
		jobs:      make(map[string]*groupJob, len(groups)),
	}
	for i := range jobs {
		j := &jobs[i]
		p.jobs[j.g.Name] = j
		for k := range j.pieces {
			p.order = append(p.order, &j.pieces[k])
		}
	}
	resident := p.order[:min(buffers-stream, pieces)]
	if sweep.last {
		resident = p.order[pieces-len(resident):]
	}
	p.holder = append(p.holder, resident...)
	p.resident = p.holder[stream:]
	for _, pc := range p.resident {
		pc.home = make([]byte, p.bufBytes)
	}
	for range stream {
		p.bufs = append(p.bufs, make([]byte, p.bufBytes))
	}
	p.stage.Go(p.run)
	return p
}

// Submit hands the group's update for the current optimizer step to the
// stage, piece by piece in order, taking every piece's applied token. It
// never blocks; each read starts as soon as the window has a buffer and the
// piece's previous write-back has been waited on.
func (p *StatePipeline) Submit(g nn.ParamGroup) error {
	j := p.jobs[g.Name]
	switch {
	case j == nil:
		return fmt.Errorf("opt: Submit(%s): group not registered with the pipeline", g.Name)
	case p.o.step < 1:
		return fmt.Errorf("opt: Submit(%s) before BeginStep", g.Name)
	case p.closed:
		return fmt.Errorf("opt: Submit(%s): %w", g.Name, errClosed)
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
		p.submitted <- &j.pieces[i]
	}
	signal(p.wake)
	// Hand the CPU to the stage now: the backward pass never blocks between
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

// Flush is Wait, then the stage's start of the dirty resident pieces'
// write-backs and its wait on them and every other write-back still open:
// nothing is in flight when it returns, the store holds every piece's last
// update, and the failures — of write-backs that trailed an earlier Wait
// too — are returned joined, once. A resident piece whose write-back failed
// stays dirty.
func (p *StatePipeline) Flush() error {
	joined := p.Wait()
	if !p.closed { // a closed stage waited on them all before it returned
		p.submitted <- nil
		signal(p.wake)
		<-p.flush
	}
	for _, pc := range p.order {
		joined = errors.Join(joined, pc.wrote)
		pc.wrote = nil
	}
	return joined
}

// Drop discards the resident copies, dirty or not; the next update that
// needs one loads the set from the store again. Call it after Flush, before
// the store's state is replaced behind the pipeline — a checkpoint restore —
// so no stale copy outlives that.
func (p *StatePipeline) Drop() {
	for _, pc := range p.resident {
		pc.dirty, pc.buf = false, nil
	}
	p.residentBytes.Store(0)
}

// Buffered reports how many pieces — not groups, not bytes — hold a stream
// buffer right now, zero after Flush, and the most that ever did at once,
// which never exceeds the stream's buffers. Resident pieces are not counted.
func (p *StatePipeline) Buffered() (now, peak int) {
	return int(p.buffered.Load()), int(p.peakBuffered.Load())
}

// Window reports the window's piece buffers, the stream's and the resident
// set's, and their bytes in all, which never exceed depth × 12 B × the
// largest group: a piece holds its bytes in one buffer, so the state held at
// once is at most (peak + resident) × bytes/(stream + resident).
func (p *StatePipeline) Window() (stream, resident, bytes int) {
	return len(p.bufs), len(p.resident), (len(p.bufs) + len(p.resident)) * p.bufBytes
}

// ResidentBytes reports the state the resident set holds now, in the form
// each piece is stored in: what a step does not read or write. Zero until an
// update loads a resident piece, and after Drop.
func (p *StatePipeline) ResidentBytes() int { return int(p.residentBytes.Load()) }

// Close stops the stage and joins it. The stage first updates the pieces,
// resident ones too, whose reads are in flight and waits on every
// write-back, so every stream buffer is free and every ticket settled; an
// update still waiting for its read fails. Call Flush first: only Flush
// reports a write-back's failure. Idempotent and nil-safe.
func (p *StatePipeline) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	close(p.submitted)
	signal(p.wake)
	p.stage.Wait()
}

// run is the Adam stage. It takes what has been sent on submitted — a
// resident piece it updates at once if its home holds it, else it starts the
// piece's read; a streamed one waits for a read; Flush's nil starts the dirty
// resident pieces' write-backs and has every write-back waited on — then
// does all else that needs no wait, then waits on wake.
func (p *StatePipeline) run() {
	for {
		select {
		case pc, ok := <-p.submitted:
			switch {
			case !ok: // Close: reads in flight still update, waiting pieces fail
				for _, pc := range p.holder {
					if pc != nil && pc.read != nil {
						p.update(pc)
					}
				}
				for _, pc := range p.waiting {
					pc.applied <- errClosed
				}
				p.settleAll()
				return
			case pc == nil:
				for _, r := range p.resident {
					if r.dirty {
						r.written = p.start(r, true)
					}
				}
				p.settleAll()
				p.flush <- struct{}{}
			case pc.home == nil:
				p.waiting = append(p.waiting, pc)
			case pc.buf != nil: // its home holds it
				p.update(pc)
			default:
				pc.buf = pc.home[:pc.stored()]
				pc.read = p.start(pc, false)
			}
		default:
			if !p.advance() {
				<-p.wake
			}
		}
	}
}

// advance updates every piece whose read has finished and starts the read
// of every waiting piece, in order, that waits on nothing — not on its own
// write-back (the read-after-write join), and not for a stream buffer: a
// free one, else one whose write-back has finished — and reports whether it
// did either.
func (p *StatePipeline) advance() (moved bool) {
	for _, pc := range p.holder {
		if pc != nil && pc.read != nil && pc.read.Done() {
			p.update(pc)
			moved = true
		}
	}
	stream := p.holder[:len(p.bufs)]
	for len(p.waiting) > 0 {
		pc := p.waiting[0]
		if pc.written != nil {
			if !pc.written.Done() {
				break
			}
			p.settle(pc)
		}
		i := slices.Index(stream, nil)
		if i < 0 {
			i = slices.IndexFunc(stream, func(h *pieceJob) bool { return h.written != nil && h.written.Done() })
			if i < 0 {
				break
			}
			p.settle(stream[i])
		}
		p.waiting, moved = slices.Delete(p.waiting, 0, 1), true
		if pc.wrote != nil {
			pc.applied <- pc.wrote
			pc.wrote = nil
			continue
		}
		p.holder[i], pc.buf = pc, p.bufs[i][:pc.stored()] // the form the last write-back recorded
		if n := p.buffered.Add(1); n > p.peakBuffered.Load() {
			p.peakBuffered.Store(n) // the stage is the only writer
		}
		pc.read = p.start(pc, false)
	}
	return moved
}

// start starts the transfer of pc's buffer to (write) or from the store as a
// ticket that wakes the stage when it finishes.
func (p *StatePipeline) start(pc *pieceJob, write bool) Ticket {
	t := p.o.store.Start(pc.key, pc.buf, write)
	t.Notify(p.wake)
	return t
}

// update is one piece's Adam: the wait on its read, if it had one, and the
// walk in place on its buffer; then a streamed piece's write-back starts,
// and a resident one stays in its home, dirty.
func (p *StatePipeline) update(pc *pieceJob) {
	if pc.read != nil {
		err := loaded(pc.key, pc.read.Wait())
		pc.read = nil
		if err != nil {
			p.release(pc)
			pc.applied <- err
			return
		}
		if pc.home != nil {
			p.residentBytes.Add(int64(len(pc.buf))) // the home holds it now
		}
	}
	was := len(pc.buf)
	err := p.o.applyPiece(pc)
	switch {
	case pc.home != nil:
		if err == nil {
			pc.dirty = true
			p.residentBytes.Add(int64(len(pc.buf) - was))
		}
	case err != nil:
		p.release(pc)
	default:
		pc.written = p.start(pc, true)
	}
	pc.applied <- err
}

// settle waits on pc's write-back and keeps its failure for the piece's next
// read or Flush; it frees a streamed piece's buffer, and leaves a resident
// piece dirty only if the write failed.
func (p *StatePipeline) settle(pc *pieceJob) {
	err := pc.written.Wait()
	if pc.written = nil; err != nil {
		pc.wrote = fmt.Errorf("opt: write back %s: %w", pc.key, err)
	}
	if pc.home != nil {
		pc.dirty = err != nil
		return
	}
	p.release(pc)
}

// settleAll waits on every write-back in flight, the resident pieces' too.
func (p *StatePipeline) settleAll() {
	for _, pc := range p.holder {
		if pc != nil && pc.written != nil {
			p.settle(pc)
		}
	}
}

// release frees pc's stream buffer, or marks a resident piece's home as not
// holding it.
func (p *StatePipeline) release(pc *pieceJob) {
	if pc.buf = nil; pc.home == nil {
		p.holder[slices.Index(p.holder, pc)] = nil
		p.buffered.Add(-1)
	}
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
