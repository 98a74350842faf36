package memctl

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"ratel/internal/units"
)

func TestAllocFreePeak(t *testing.T) {
	p := NewPool("gpu", 100)
	if err := p.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := p.Alloc(30); err != nil {
		t.Fatal(err)
	}
	p.Free(50)
	if got := p.Used(); got != 40 {
		t.Errorf("Used = %v, want 40", got)
	}
	if got := p.Peak(); got != 90 {
		t.Errorf("Peak = %v, want 90", got)
	}
	if got := p.Available(); got != 60 {
		t.Errorf("Available = %v, want 60", got)
	}
	if got := p.MinUnallocated(); got != 10 {
		t.Errorf("MinUnallocated = %v, want 10", got)
	}
}

func TestOOM(t *testing.T) {
	p := NewPool("gpu", 24*units.GiB)
	if err := p.Alloc(20 * units.GiB); err != nil {
		t.Fatal(err)
	}
	err := p.Alloc(5 * units.GiB)
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("Alloc over capacity = %v, want ErrOOM", err)
	}
	// Failed alloc must not change usage.
	if got := p.Used(); got != 20*units.GiB {
		t.Errorf("Used after failed alloc = %v", got)
	}
}

func TestUnlimitedPool(t *testing.T) {
	p := NewPool("unbounded", 0)
	if err := p.Alloc(1 * units.TiB); err != nil {
		t.Fatal(err)
	}
	if p.Available() < units.Bytes(1)<<61 {
		t.Error("unlimited pool should report huge availability")
	}
	if p.MinUnallocated() != 0 {
		t.Error("unlimited pool has no headroom information")
	}
}

func TestFreeTooMuchPanics(t *testing.T) {
	p := NewPool("gpu", 10)
	defer func() {
		if recover() == nil {
			t.Error("over-free did not panic")
		}
	}()
	p.Free(1)
}

func TestNegativeAlloc(t *testing.T) {
	p := NewPool("gpu", 10)
	if err := p.Alloc(-1); err == nil {
		t.Error("negative alloc should fail")
	}
}

func TestResetPeak(t *testing.T) {
	p := NewPool("m", 100)
	_ = p.Alloc(80)
	p.Free(80)
	p.ResetPeak()
	if got := p.Peak(); got != 0 {
		t.Errorf("Peak after reset = %v, want 0", got)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	p := NewPool("m", 1_000_000)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := p.Alloc(10); err != nil {
					t.Error(err)
					return
				}
				p.Free(10)
			}
		}()
	}
	wg.Wait()
	if got := p.Used(); got != 0 {
		t.Errorf("Used after balanced alloc/free = %v, want 0", got)
	}
}

// Property: after any sequence of successful allocs, used == sum and
// peak >= used, and capacity is never exceeded.
func TestPoolInvariants(t *testing.T) {
	f := func(sizes []uint16) bool {
		p := NewPool("q", 1<<20)
		var sum units.Bytes
		for _, s := range sizes {
			n := units.Bytes(s)
			if err := p.Alloc(n); err != nil {
				if !errors.Is(err, ErrOOM) {
					return false
				}
				continue
			}
			sum += n
		}
		return p.Used() == sum && p.Peak() >= p.Used() && p.Used() <= p.Capacity()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
