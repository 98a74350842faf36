package tensor

// Arena is a bump allocator for tensors that die together: one float32
// buffer handed out front to back, and a table of Tensor headers handed out
// with it, both reused after every Release. The training engine owns two —
// one for the tensors that live for a step, one for those that live for a
// block's forward or backward — and installs them on the model
// (nn.Model.SetArena); a nil *Arena is the heap, so every allocation site
// calls New on whatever arena it was given and code that was given none runs
// on zeroed heap tensors as before.
//
// Arena memory is DIRTY: New returns whatever the last owner left there, never
// zeroes. A result tensor must be fully written by its kernel (the Into
// kernels are; DESIGN.md §9), and a caller that relies on +0 writes it.
//
// There is nothing to size. An allocation the buffer cannot hold comes from
// the heap instead (zeroed, and garbage afterwards) and is still counted, and
// Reset — the step boundary — grows the buffer to the high-water mark of the
// step behind it: the first step runs on the heap, and every later one of the
// same shape inside one allocation. An Arena is not safe for concurrent use;
// a kernel that fans out allocates before it does.
type Arena struct {
	buf  []float32
	used int       // floats asked for since the last Release, rounded to arenaAlign
	peak int       // high-water mark of used since the last Reset
	hdrs []*Tensor // hdrs[:nh] are handed out; the rest wait, shapes' capacity and all
	nh   int
}

// arenaAlign is the allocation granule in floats: one 64-byte cache line, so
// every tensor starts on one (the buffer itself is page-aligned).
const arenaAlign = 16

// New returns a tensor of the given shape from the arena's dirty memory, or a
// zeroed heap tensor when a is nil or out of room.
func (a *Arena) New(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	n := Numel(shape...)
	at := a.used
	a.used += (n + arenaAlign - 1) &^ (arenaAlign - 1)
	if a.used > len(a.buf) {
		return New(shape...)
	}
	if a.nh == len(a.hdrs) {
		a.hdrs = append(a.hdrs, new(Tensor))
	}
	t := a.hdrs[a.nh]
	a.nh++
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = a.buf[at : at+n : at+n]
	return t
}

// Clone copies t into a tensor from the arena.
func (a *Arena) Clone(t *Tensor) *Tensor {
	c := a.New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Release frees every tensor handed out since the last Release: their memory
// and their headers are the next allocations'. A no-op on a nil arena.
func (a *Arena) Release() {
	if a != nil {
		a.peak = max(a.peak, a.used)
		a.used, a.nh = 0, 0
	}
}

// Reset is Release at a step boundary, the one place the buffer is allocated:
// it grows to the high-water mark since the last Reset if that did not fit.
func (a *Arena) Reset() {
	a.Release()
	if a.peak > len(a.buf) {
		a.buf = make([]float32, a.peak)
	}
	a.peak = 0
}

// Cap is the buffer's size and Peak the high-water mark since the last Reset,
// both in bytes; Peak exceeds Cap exactly while the heap is serving.
func (a *Arena) Cap() int  { return 4 * len(a.buf) }
func (a *Arena) Peak() int { return 4 * max(a.peak, a.used) }

// Free is the part of the buffer no live tensor owns: what the next
// allocations will be handed, contents and all. Tests fill it with NaN.
func (a *Arena) Free() []float32 { return a.buf[min(a.used, len(a.buf)):] }
