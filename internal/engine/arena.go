package engine

import (
	"sync/atomic"

	"ratel/internal/nn"
	"ratel/internal/tensor"
)

// blobArena is the host tier of the engine's steady-state swap memory (the
// SSD tier's ring belongs to the activation window, pipeline.go) and the blob
// codec both tiers share. Every buffer is allocated at most once — blob size
// is fixed by the geometry — and reused for the rest of training; a blob is
// decoded into tensors of the block's scope (Engine.reviveCache).
type blobArena struct {
	host []hostBlob // by block; only SwapHost blocks allocate

	// blobReuses counts slot- and host-buffer uses served without allocating,
	// exposed via the metrics registry (engine.blob_reuses).
	blobReuses atomic.Int64
}

// hostBlob is one block's SwapHost cache, written by forward and read by
// backward on the step goroutine. The blob allocates on first use and stays
// with the block while it is in the tier; pinned is set exactly while the
// blob holds this step's cache.
type hostBlob struct {
	blob   []byte
	pinned bool
}

// hostBuf returns block i's host-tier blob of n bytes.
func (ar *blobArena) hostBuf(i, n int) []byte { return keepBlob(&ar.host[i].blob, n, &ar.blobReuses) }

// keepBlob returns the owner's buffer *b, allocating its n bytes on first use
// and counting every later one in reuses.
func keepBlob(b *[]byte, n int, reuses *atomic.Int64) []byte {
	if *b == nil {
		*b = make([]byte, n)
	} else {
		reuses.Add(1)
	}
	return *b
}

// releaseHost unpins every host-tier blob — the failure path's half of "no
// pinned cache outlives its step".
func (ar *blobArena) releaseHost() {
	for i := range ar.host {
		ar.host[i].pinned = false
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
