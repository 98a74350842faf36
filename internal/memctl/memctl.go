// Package memctl provides capacity-tracked memory pools for the GPU and
// main memory. The engine allocates every tensor through a pool, so
// out-of-memory conditions are detected exactly as they would be on the
// device, and the profiling stage can read the peak usage and the minimum
// unallocated main memory MEMavail_M (§IV-B) from the pool's high-water
// mark.
package memctl

import (
	"errors"
	"fmt"
	"sync"

	"ratel/internal/units"
)

// ErrOOM is wrapped by allocation failures.
var ErrOOM = errors.New("memctl: out of memory")

// Pool is a capacity-limited allocator with peak tracking. The zero value
// is unusable; use NewPool.
type Pool struct {
	name     string
	capacity units.Bytes

	mu   sync.Mutex
	used units.Bytes
	peak units.Bytes
}

// NewPool creates a pool with the given capacity. A non-positive capacity
// means unlimited (used by tests and by the simulator's accounting-only
// runs).
func NewPool(name string, capacity units.Bytes) *Pool {
	return &Pool{name: name, capacity: capacity}
}

// Name reports the pool's name.
func (p *Pool) Name() string { return p.name }

// Capacity reports the configured capacity (0 = unlimited).
func (p *Pool) Capacity() units.Bytes { return p.capacity }

// Alloc reserves n bytes, failing with an ErrOOM-wrapped error if the pool
// would exceed its capacity.
func (p *Pool) Alloc(n units.Bytes) error {
	if n < 0 {
		return fmt.Errorf("memctl: %s: negative allocation %d", p.name, n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.capacity > 0 && p.used+n > p.capacity {
		return fmt.Errorf("%w: %s: need %v, used %v of %v",
			ErrOOM, p.name, n, p.used, p.capacity)
	}
	p.used += n
	if p.used > p.peak {
		p.peak = p.used
	}
	return nil
}

// Free releases n bytes. Freeing more than is allocated indicates an
// accounting bug in the caller and panics.
func (p *Pool) Free(n units.Bytes) {
	if n < 0 {
		panic(fmt.Sprintf("memctl: %s: negative free %d", p.name, n))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > p.used {
		panic(fmt.Sprintf("memctl: %s: free %v exceeds used %v", p.name, n, p.used))
	}
	p.used -= n
}

// Used reports current usage.
func (p *Pool) Used() units.Bytes {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Peak reports the high-water mark since creation or the last ResetPeak.
func (p *Pool) Peak() units.Bytes {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// Available reports the headroom left; unlimited pools report a very large
// value.
func (p *Pool) Available() units.Bytes {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.capacity <= 0 {
		return units.Bytes(1) << 62
	}
	return p.capacity - p.used
}

// MinUnallocated is the paper's MEMavail_M: capacity minus the peak usage
// observed during profiling. Unlimited pools report 0 headroom information.
func (p *Pool) MinUnallocated() units.Bytes {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.capacity <= 0 {
		return 0
	}
	return p.capacity - p.peak
}

// ResetPeak sets the high-water mark to current usage, for reuse across
// profiling iterations.
func (p *Pool) ResetPeak() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.peak = p.used
}
