package nvme

import (
	"bytes"
	"testing"
)

func TestBufPoolHitMissSteal(t *testing.T) {
	p := NewBufPool()

	b1 := p.Get(1000) // empty pool: miss
	if len(b1) != 1000 {
		t.Fatalf("Get(1000) len = %d", len(b1))
	}
	if cap(b1) != 1024 {
		t.Fatalf("Get(1000) cap = %d, want class size 1024", cap(b1))
	}
	p.Put(b1)

	b2 := p.Get(700) // same class (1024): hit
	if cap(b2) != 1024 || len(b2) != 700 {
		t.Fatalf("Get(700) len/cap = %d/%d", len(b2), cap(b2))
	}

	b3 := p.Get(4096) // class 4096 empty: miss
	p.Put(b3)
	b4 := p.Get(600) // class 1024 empty, class 4096 has one: steal
	if cap(b4) != 4096 || len(b4) != 600 {
		t.Fatalf("steal len/cap = %d/%d", len(b4), cap(b4))
	}
	p.Put(b4)
	b5 := p.Get(3000) // stolen buffer went back to its own class: hit
	if cap(b5) != 4096 {
		t.Fatalf("recycled steal cap = %d", cap(b5))
	}

	want := BufStats{Hits: 2, Misses: 2, Steals: 1}
	if got := p.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

func TestBufPoolTinyAndHugeRequests(t *testing.T) {
	p := NewBufPool()
	tiny := p.Get(3)
	if len(tiny) != 3 || cap(tiny) != 1<<minBufClassBits {
		t.Fatalf("tiny len/cap = %d/%d", len(tiny), cap(tiny))
	}
	if p.Get(0) != nil {
		t.Fatal("Get(0) should be nil")
	}
	huge := p.Get(1<<maxBufClassBits + 1) // beyond pooled range: plain alloc
	if len(huge) != 1<<maxBufClassBits+1 {
		t.Fatalf("huge len = %d", len(huge))
	}
	p.Put(huge) // dropped: capacity is not an exact class size
	s := p.Stats()
	if s.Hits != 0 || s.Steals != 0 {
		t.Fatalf("unpooled traffic counted as reuse: %+v", s)
	}
}

func TestBufPoolDropsForeignBuffers(t *testing.T) {
	p := NewBufPool()
	p.Put(make([]byte, 1000)) // cap 1000: not a class size
	p.Put(make([]byte, 16))   // below min class
	if got := p.Get(1000); cap(got) == 1000 {
		t.Fatal("foreign buffer was pooled")
	}
	if s := p.Stats(); s.Hits != 0 {
		t.Fatalf("foreign buffer served a hit: %+v", s)
	}
}

func TestBufPoolBoundsRetention(t *testing.T) {
	p := NewBufPool()
	bufs := make([][]byte, 0, 2*maxBuffersPerClass)
	for i := 0; i < 2*maxBuffersPerClass; i++ {
		bufs = append(bufs, p.Get(512))
	}
	for _, b := range bufs {
		p.Put(b)
	}
	if n := len(p.classes[0]); n != maxBuffersPerClass {
		t.Fatalf("class holds %d buffers, want cap %d", n, maxBuffersPerClass)
	}
}

// TestPutThenRecycle: Put only borrows its buffer, so recycling it right
// after the call neither loses it from the pool nor disturbs the stored
// bytes.
func TestPutThenRecycle(t *testing.T) {
	a := openMem(t, 2)
	data := []byte("spilled optimizer state bytes......")
	buf := Buffers.Get(len(data))
	copy(buf, data)
	before := Buffers.Stats()
	if err := a.PutClass("k", buf, ClassWriteback); err != nil {
		t.Fatal(err)
	}
	Buffers.Put(buf)
	// The buffer is back in the pool: a same-class Get reuses it.
	again := Buffers.Get(len(data))
	for i := range again {
		again[i] = 0xff
	}
	after := Buffers.Stats()
	if after.Hits+after.Steals <= before.Hits+before.Steals {
		t.Fatalf("the put buffer was not recycled: %+v -> %+v", before, after)
	}
	Buffers.Put(again)
	got, err := a.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("recycling the put buffer corrupted stored data")
	}
}

// TestPutSameSizeReusesChunks pins the overwrite fast path: a same-size Put
// keeps the exact chunk layout (no free/realloc churn), while a different
// size reallocates.
func TestPutSameSizeReusesChunks(t *testing.T) {
	a, err := Open(Config{Devices: 3, StripeSize: 64, Checksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	first := bytes.Repeat([]byte{7}, 500)
	if err := a.Put("k", first); err != nil {
		t.Fatal(err)
	}
	layout := append([]chunkRef(nil), a.objs["k"].chunks...)

	second := bytes.Repeat([]byte{9}, 500)
	if err := a.Put("k", second); err != nil {
		t.Fatal(err)
	}
	obj := a.objs["k"]
	if len(obj.chunks) != len(layout) {
		t.Fatalf("chunk count changed: %d -> %d", len(layout), len(obj.chunks))
	}
	for i, c := range obj.chunks {
		if c != layout[i] {
			t.Fatalf("chunk %d moved: %+v -> %+v", i, layout[i], c)
		}
	}
	got, err := a.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, second) {
		t.Fatal("fast-path overwrite returned stale data")
	}

	// Different size falls back to realloc and still round-trips.
	third := bytes.Repeat([]byte{4}, 130)
	if err := a.Put("k", third); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Get("k"); err != nil || !bytes.Equal(got, third) {
		t.Fatalf("resize overwrite: %v", err)
	}
}
