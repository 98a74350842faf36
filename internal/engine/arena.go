package engine

import (
	"sync/atomic"

	"ratel/internal/memctl"
	"ratel/internal/nn"
	"ratel/internal/tensor"
	"ratel/internal/units"
)

// blobArena is the engine's steady-state swap memory: every buffer the
// activation path needs, allocated at most once (blob size is fixed by the
// geometry) and reused for the rest of training.
//
// It is a ring of PipelineDepth+1 slots, each one blob buffer; block i maps
// to slot i mod len(slots). The ring holds bytes only: a blob is decoded into
// tensors of the block's scope (Engine.reviveCache). Safety relies on the
// pipeline's window discipline rather than locking:
//
//   - Forward (write-behind): block i encodes into slot(i) and hands the
//     blob to the activation window. The slot's buffer stays in flight until
//     a worker finishes the NVMe Put and returns the slot token, and the
//     window bounds in-flight writes to depth — so by the time block
//     i+len(slots) wants the same slot, the engine has waited on that exact
//     token (a recorded stall when the window is full). All writes drain at
//     the forward/backward barrier, so backward starts with every slot free.
//   - Backward (read-ahead): the fetch for block i-depth launches only when
//     block i is consumed, so launched-but-unconsumed fetches span at most
//     blocks i-depth..i — depth+1 consecutive indices, which map to
//     distinct slots.
type blobArena struct {
	slots [][]byte   // allocated on first use, kept for the engine's lifetime
	host  []hostBlob // by block; only SwapHost blocks allocate

	// blobReuses counts slot- and host-buffer uses served without allocating,
	// exposed via the metrics registry (engine.blob_reuses).
	blobReuses atomic.Int64
}

// hostBlob is one block's SwapHost cache, written by forward and read by
// backward on the step goroutine. The blob allocates on first use and stays
// with the block while it is in the tier; pinned is set exactly while the
// blob holds this step's cache and its bytes are charged to the host pool.
type hostBlob struct {
	blob   []byte
	pinned bool
}

// init sizes the ring and the host tier. Must be called before any other
// method; the engine calls it once at construction (depth+1 slots).
func (ar *blobArena) init(nslots, nblocks int) {
	ar.slots = make([][]byte, nslots)
	ar.host = make([]hostBlob, nblocks)
}

// slotIndex maps a block to its ring slot.
func (ar *blobArena) slotIndex(i int) int { return i % len(ar.slots) }

// slotBuf returns block i's ring buffer of n bytes.
func (ar *blobArena) slotBuf(i, n int) []byte {
	return ar.keep(&ar.slots[ar.slotIndex(i)], n)
}

// hostBuf returns block i's host-tier blob of n bytes.
func (ar *blobArena) hostBuf(i, n int) []byte { return ar.keep(&ar.host[i].blob, n) }

// keep returns the owner's buffer *b, allocating its n bytes on first use.
func (ar *blobArena) keep(b *[]byte, n int) []byte {
	if *b == nil {
		*b = make([]byte, n)
	} else {
		ar.blobReuses.Add(1)
	}
	return *b
}

// releaseHost frees every host-tier blob still charged to pool — the failure
// path's half of "no host-pool charge outlives its step".
func (ar *blobArena) releaseHost(pool *memctl.Pool) {
	for i := range ar.host {
		if h := &ar.host[i]; h.pinned {
			pool.Free(units.Bytes(len(h.blob)))
			h.pinned = false
		}
	}
}

// encode packs c into blob, which must be exactly geometry.blobBytes() long.
func (ar *blobArena) encode(blob []byte, c *nn.BlockCache) error {
	ts := cacheTensors(c)
	return encodeTensors(blob, ts[:])
}

// decode revives c — a cache shaped by geometry.shapeCache — from blob,
// installing input as the block input.
func (ar *blobArena) decode(c *nn.BlockCache, blob []byte, input *tensor.Tensor) error {
	c.X = input
	ts := cacheTensors(c)
	return decodeTensors(blob, ts[:])
}
