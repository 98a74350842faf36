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
//	  │       ReadInto       ▲ └──▶ write-behind ─▶ written ─▶ Flush, next read-ahead
//	  │       stream buffer  │      Put, buffer back to the stream
//	  └──── resident piece ──┘      stays in its buffer; Flush writes it back
//
// The unit of every stage is a state piece (OutOfCoreAdam): Submit enqueues
// the group's pieces in order. Read-ahead issues a piece's state read, sized
// by the form the piece is stored in, as soon as the stream has a buffer for
// it; the Adam stage runs the same stage-gradients → Adam walk (which
// installs P16) path as UpdateGroup on the piece, in place on that buffer,
// and records the form it seals the piece in; write-behind puts it back to
// the store and returns the buffer to the stream. A group's last writes
// therefore share the lanes with the next step's first reads instead of
// holding a whole group's buffer until they retire.
//
// The window is the byte budget of depth whole groups — depth × the largest
// group's state in Full form — cut into as many piece-sized buffers as fit,
// allocated at construction. The stream keeps S = max(depth+1, ⌈largest
// group ÷ piece⌉) of them (or all): one whole group on the lanes, never fewer
// than the activation ring's depth+1, with one read-ahead and one
// write-behind worker each. Every other buffer is the home of one piece for
// good, in registration order — the embedding's, then block 0's: the last
// gradients of a step. Submit hands a resident piece straight to the Adam
// stage, which loads the resident set in one batch if the homes do not hold
// it and updates the piece in place, dirty; steps never read or write it.
// Flush writes the dirty ones back, and Drop discards the copies.
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
// Submit, Wait, Flush, Drop and Close belong to one goroutine (the engine's
// step goroutine). The optimizer's Store must be safe for concurrent use, as
// nvme.Array and MemStore are.
type StatePipeline struct {
	o *OutOfCoreAdam

	// readQ holds every registered piece, so submitting never blocks the
	// backward pass.
	readQ chan *pieceJob
	// adamQ and writeQ hold at most the window, so a stage never blocks
	// handing a job on.
	adamQ, writeQ chan *pieceJob
	// window holds the stream's wire buffers, each the largest piece's wire
	// size, and a buffer is its own token: read-ahead receives one before it
	// picks a job, retire sends it back. Whoever holds the buffer may touch
	// it.
	window   chan []byte
	bufBytes int // each window buffer's size, the resident ones' too
	stop     chan struct{}

	// resident are the pieces with a buffer of their own (pieceJob.home), in
	// registration order, and resKeys and resBufs their batch. residentBytes
	// is their stored bytes while the homes hold them, else 0. The Adam stage
	// loads them; Flush and Drop touch them once Wait has joined it.
	resident      []*pieceJob
	resKeys       []string
	resBufs       [][]byte
	residentBytes atomic.Int64

	readers, adam, writers join.Group
	stopOnce               sync.Once

	jobs  map[string]*groupJob // the job of each registered group
	order []*pieceJob          // every group's pieces in registration order, for the joins

	buffered     atomic.Int64 // wire buffers held right now
	peakBuffered atomic.Int64
}

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

	buf []byte // window buffer cut to the piece's stored object, held between read-ahead and retire
	// home is a resident piece's own buffer (nil for a streamed one), and
	// dirty says it holds an update the store does not.
	home  []byte
	dirty bool
	// The two join tokens (see StatePipeline), each home with the outcome of
	// the stage it names except while an update is on its way there.
	applied, written chan error
}

// NewStatePipeline starts the stage goroutines for the given groups, whose
// state o has cut into pieces. depth is the window in whole groups (minimum
// 1): it holds ⌊depth × largest group ÷ piece⌋ piece buffers, the stream's
// with one read-ahead and one write-behind worker each, the rest resident.
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
	buffers, stream := max(depth, 1), max(depth, 1)+1
	if size > 0 {
		buffers, stream = buffers*largest/size, max(stream, (largest+size-1)/size)
	}
	if sweep.stream > 0 {
		stream = sweep.stream
	}
	stream = min(stream, buffers)
	p := &StatePipeline{
		o:        o,
		readQ:    make(chan *pieceJob, pieces),
		adamQ:    make(chan *pieceJob, buffers),
		writeQ:   make(chan *pieceJob, stream),
		window:   make(chan []byte, stream),
		bufBytes: StateBytes(size, Full),
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
	p.resident = p.order[:min(buffers-stream, pieces)]
	if sweep.last {
		p.resident = p.order[pieces-len(p.resident):]
	}
	for _, pc := range p.resident {
		pc.home = make([]byte, p.bufBytes)
	}
	p.resKeys, p.resBufs = make([]string, 0, len(p.resident)), make([][]byte, 0, len(p.resident))
	for i := 0; i < stream; i++ {
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
		if pc := &j.pieces[i]; pc.home != nil {
			p.adamQ <- pc // nothing to read: at most the window is in adamQ
		} else {
			p.readQ <- pc
		}
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

// Flush is Wait plus the same join on written, then the write-back of the
// dirty resident pieces in one batch: nothing is in flight when it returns,
// the store holds every piece's last update, and the failures — of
// write-backs that trailed an earlier Wait too — are returned joined, once.
// A resident piece whose write-back failed stays dirty.
func (p *StatePipeline) Flush() error {
	joined := p.Wait()
	for _, pc := range p.order {
		joined = errors.Join(joined, <-pc.written)
		pc.written <- nil
	}
	keys, bufs := p.resKeys[:0], p.resBufs[:0]
	for _, pc := range p.resident {
		if pc.dirty {
			keys, bufs = append(keys, pc.key), append(bufs, pc.home[:pc.stored()])
		}
	}
	if len(keys) == 0 {
		return joined
	}
	if err := p.o.store.PutAll(keys, bufs); err != nil {
		return errors.Join(joined, fmt.Errorf("opt: write back the resident state: %w", err))
	}
	for _, pc := range p.resident {
		pc.dirty = false
	}
	return joined
}

// Drop discards the resident copies, dirty or not; the next update that
// needs one loads the set from the store again. Call it after Flush, before
// the store's state is replaced behind the pipeline — a checkpoint restore —
// so no stale copy outlives that.
func (p *StatePipeline) Drop() {
	for _, pc := range p.resident {
		pc.dirty = false
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
	return cap(p.window), len(p.resident), (cap(p.window) + len(p.resident)) * p.bufBytes
}

// ResidentBytes reports the state the resident set holds now, in the form
// each piece is stored in: what a step does not read or write. Zero until an
// update loads the set, and after Drop.
func (p *StatePipeline) ResidentBytes() int { return int(p.residentBytes.Load()) }

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
		if pc.home != nil {
			pc.applied <- p.applyResident(pc)
			continue
		}
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

// applyResident is a resident piece's trip: the Adam stage in place on its
// home, loading the resident set first if the homes do not hold it, and the
// piece left dirty there for Flush.
func (p *StatePipeline) applyResident(pc *pieceJob) error {
	if p.residentBytes.Load() == 0 {
		keys, bufs, n := p.resKeys[:0], p.resBufs[:0], 0
		for _, r := range p.resident {
			keys, bufs, n = append(keys, r.key), append(bufs, r.home[:r.stored()]), n+r.stored()
		}
		if err := p.o.store.ReadAllInto(keys, bufs); err != nil {
			return fmt.Errorf("opt: load the resident state: %w", err)
		}
		p.residentBytes.Store(int64(n))
	}
	was := pc.stored()
	pc.buf = pc.home[:was]
	err := p.o.applyPiece(pc)
	pc.buf = nil
	if err != nil {
		return err
	}
	pc.dirty = true
	p.residentBytes.Add(int64(pc.stored() - was))
	return nil
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
