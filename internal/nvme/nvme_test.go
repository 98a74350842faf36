package nvme

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ratel/internal/obs"
	"ratel/internal/units"
)

func openMem(t *testing.T, devices int) *Array {
	t.Helper()
	a, err := Open(Config{Devices: devices, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// deviceBytes is each device's traffic, read and write: the stripe balance.
func deviceBytes(a *Array) []units.Bytes {
	a.statMu.Lock()
	defer a.statMu.Unlock()
	out := make([]units.Bytes, len(a.perDevBytes))
	for i, b := range a.perDevBytes {
		out[i] = units.Bytes(b)
	}
	return out
}

// get reads the object stored under key back whole through ReadInto.
func get(a *Array, key string) ([]byte, error) {
	a.mu.RLock()
	obj, ok := a.objs[key]
	a.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	dst := make([]byte, obj.size)
	return dst, a.ReadInto(key, dst)
}

func TestPutGetRoundTrip(t *testing.T) {
	a := openMem(t, 4)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	if err := a.Put("k", data); err != nil {
		t.Fatal(err)
	}
	got, err := get(a, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip corrupted data")
	}
}

func TestReadInto(t *testing.T) {
	a := openMem(t, 2)
	data := []byte("hello nvme array")
	if err := a.Put("k", data); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(data))
	if err := a.ReadInto("k", dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("ReadInto corrupted data")
	}
	if err := a.ReadInto("k", make([]byte, 3)); err == nil {
		t.Error("ReadInto with wrong size should fail")
	}
	if err := a.ReadInto("missing", dst); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadInto(missing) = %v, want ErrNotFound", err)
	}
}

func TestOverwriteReplaces(t *testing.T) {
	a := openMem(t, 3)
	if err := a.Put("k", bytes.Repeat([]byte{1}, 500)); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("k", bytes.Repeat([]byte{2}, 100)); err != nil {
		t.Fatal(err)
	}
	got, err := get(a, "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || got[0] != 2 {
		t.Fatal("overwrite did not replace object")
	}
	if st := a.Stats(); st.Objects != 1 {
		t.Errorf("objects = %d, want 1", st.Objects)
	}
}

// TestOverwriteKeepsStripes: an overwrite keeps the object's chunks
// whenever they suffice — a state piece whose size moves with its escapes,
// or that changes form. Another size on as many stripes, a shrink to one
// stripe and the regrowth to three all keep the same chunk list, allocate
// nothing, lay nothing out and read back whole at the new size. An
// overwrite on more stripes adds chunks after the kept ones, in the list's
// array while it has room (half as many again), so a piece that changes form
// back and forth allocates nothing; past that room it moves the list to a
// new array, still starting with the kept chunks. Every chunk i lies on
// device (first + i) mod 3, so a stride still touches one device.
func TestOverwriteKeepsStripes(t *testing.T) {
	a := openMem(t, 3)
	stripe := a.cfg.StripeSize
	bufs := map[int][]byte{}
	for _, n := range []int{2*stripe + 10, 3 * stripe, 2*stripe + 1, 3*stripe - 7, stripe, 4 * stripe, 6*stripe + 1} {
		bufs[n] = bytes.Repeat([]byte{byte(n)}, n)
	}
	put := func(n int) {
		if err := a.Put("k", bufs[n]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, n int, kept []chunkRef, layouts int64) {
		t.Helper()
		chunks := a.objs["k"].chunks
		if got, err := get(a, "k"); err != nil || !bytes.Equal(got, bufs[n]) {
			t.Fatalf("%s: read back %d bytes, %v; want %d", what, len(got), err, n)
		}
		if !slices.Equal(chunks[:len(kept)], kept) || a.Stats().Layouts != layouts {
			t.Fatalf("%s: chunks %v, %d layouts; want them to start with %v after %d layouts", what, chunks, a.Stats().Layouts, kept, layouts)
		}
		for i, c := range chunks {
			if c.dev != (chunks[0].dev+i)%3 {
				t.Fatalf("%s: chunk %d on device %d, chunk 0 on %d", what, i, c.dev, chunks[0].dev)
			}
		}
	}
	put(2*stripe + 10)
	three, list := slices.Clone(a.objs["k"].chunks), &a.objs["k"].chunks[0]
	if allocs := testing.AllocsPerRun(5, func() { put(3 * stripe); put(2*stripe + 1); put(3*stripe - 7) }); allocs != 0 {
		t.Errorf("overwrites on as many stripes allocate %.1f times, want 0", allocs)
	}
	check("overwrites on 3 stripes", 3*stripe-7, three, 1)
	if allocs := testing.AllocsPerRun(5, func() { put(stripe); put(3 * stripe) }); allocs != 0 {
		t.Errorf("a shrink to 1 stripe and the regrowth to 3 allocate %.1f times, want 0", allocs)
	}
	put(stripe)
	check("a shrink to 1 stripe", stripe, three, 1)
	if len(a.objs["k"].chunks) != 3 {
		t.Fatalf("the shrunk object holds %d chunks, want the 3 it had", len(a.objs["k"].chunks))
	}
	put(3 * stripe)
	check("the regrowth to 3 stripes", 3*stripe, three, 1)
	put(4 * stripe)
	check("an overwrite on 4 stripes", 4*stripe, three, 2)
	four := slices.Clone(a.objs["k"].chunks)
	if &a.objs["k"].chunks[0] != list || len(four) != 4 {
		t.Fatalf("the object holds %d chunks, listed in the same array %v", len(four), &a.objs["k"].chunks[0] == list)
	}
	if allocs := testing.AllocsPerRun(5, func() { put(3 * stripe); put(4 * stripe) }); allocs != 0 {
		t.Errorf("overwrites between 3 and 4 stripes allocate %.1f times, want 0", allocs)
	}
	check("overwrites between 3 and 4 stripes", 4*stripe, four, 2)
	put(6*stripe + 1)
	check("an overwrite on 7 stripes", 6*stripe+1, four, 3)
	if &a.objs["k"].chunks[0] == list {
		t.Fatal("7 chunks listed in an array with room for 4")
	}
	put(stripe)
	check("a shrink to 1 stripe of 7", stripe, four, 3)
	// A failed overwrite that outgrew them releases the chunks it added and
	// leaves the object on its own.
	a.InjectFault(0, errors.New("media error"))
	if err := a.Put("k", make([]byte, 9*stripe)); err == nil {
		t.Fatal("an overwrite over a failed device succeeded")
	}
	a.InjectFault(0, nil)
	free := 0
	for _, d := range a.devs {
		free += len(d.free)
	}
	if obj := a.objs["k"]; len(obj.chunks) != 7 || obj.size != stripe || free != 2 || a.Stats().Layouts != 3 {
		t.Fatalf("after a failed overwrite on 9 stripes: %d chunks, %d bytes, %d chunks free, %d layouts; want 7, %d, 2, 3", len(obj.chunks), obj.size, free, a.Stats().Layouts, stripe)
	}
}

func TestDeleteAndChunkReuse(t *testing.T) {
	a := openMem(t, 2)
	if err := a.Put("k", make([]byte, 640)); err != nil {
		t.Fatal(err)
	}
	a.delete("k")
	if _, ok := a.objs["k"]; ok {
		t.Error("object still stored after delete")
	}
	a.delete("k") // deleting a missing key is a no-op
	// Freed chunks are reused: device high-water mark should not grow.
	before := a.devs[0].next + a.devs[1].next
	if err := a.Put("k2", make([]byte, 640)); err != nil {
		t.Fatal(err)
	}
	after := a.devs[0].next + a.devs[1].next
	if after != before {
		t.Errorf("chunk reuse failed: high-water %d -> %d", before, after)
	}
}

func TestStripingBalancesDevices(t *testing.T) {
	a := openMem(t, 4)
	for i := 0; i < 8; i++ {
		if err := a.Put(fmt.Sprintf("k%d", i), make([]byte, 64*16)); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	for i, b := range deviceBytes(a) {
		if b == 0 {
			t.Errorf("device %d received no traffic", i)
		}
	}
	if st.BytesWritten != units.Bytes(8*64*16) {
		t.Errorf("bytes written = %v", st.BytesWritten)
	}
}

// TestShortTailChunksSpread: objects of three chunks, the last one short, on
// three devices — the chunk count a multiple of the device count — put their
// tails on every device in turn, so each device's bytes are within one stripe
// of every other's. Advancing the round-robin start by the chunk count alone
// started every object on device 0 and put all 30 tails on device 2.
func TestShortTailChunksSpread(t *testing.T) {
	a := openMem(t, 3)
	for i := 0; i < 30; i++ {
		if err := a.Put(fmt.Sprintf("k%d", i), make([]byte, 2*64+10)); err != nil {
			t.Fatal(err)
		}
	}
	per := deviceBytes(a)
	lo, hi := slices.Min(per), slices.Max(per)
	if hi-lo > 64 {
		t.Fatalf("per-device bytes %v: spread %d, more than one 64 B stripe", per, hi-lo)
	}
}

func TestEmptyObject(t *testing.T) {
	a := openMem(t, 2)
	if err := a.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := get(a, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty object read back %d bytes", len(got))
	}
}

func TestFaultInjection(t *testing.T) {
	a := openMem(t, 2)
	data := make([]byte, 1024)
	if err := a.Put("k", data); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("media error")
	a.InjectFault(1, boom)
	if _, err := get(a, "k"); err == nil || !errors.Is(err, boom) {
		t.Errorf("read with faulty device = %v, want media error", err)
	}
	if err := a.Put("k2", data); err == nil {
		t.Error("Put with faulty device should fail")
	}
	a.InjectFault(1, nil)
	if _, err := get(a, "k"); err != nil {
		t.Errorf("read after fault cleared = %v", err)
	}
	// Out-of-range device indexes are ignored.
	a.InjectFault(99, boom)
	a.InjectFault(-1, boom)
}

func TestFileBackend(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(Config{Devices: 3, StripeSize: 128, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(data)
	if err := a.Put("weights", data); err != nil {
		t.Fatal(err)
	}
	got, err := get(a, "weights")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file backend round trip corrupted data")
	}
}

func TestOpenRejectsBadConfig(t *testing.T) {
	if _, err := Open(Config{Devices: 0}); err == nil {
		t.Error("Open with 0 devices should fail")
	}
	if _, err := Open(Config{Devices: 1, StripeSize: -5}); err == nil {
		t.Error("Open with negative stripe should fail")
	}
}

func TestConcurrentAccess(t *testing.T) {
	a := openMem(t, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("w%d", w)
			payload := bytes.Repeat([]byte{byte(w)}, 777)
			for i := 0; i < 20; i++ {
				if err := a.Put(key, payload); err != nil {
					t.Error(err)
					return
				}
				got, err := get(a, key)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, payload) {
					t.Error("concurrent corruption")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRoundTripProperty: any payload, any device count 1..8, any stripe size
// round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, devs, stripe uint8, size uint16) bool {
		d := int(devs)%8 + 1
		s := int(stripe)%512 + 1
		a, err := Open(Config{Devices: d, StripeSize: s})
		if err != nil {
			return false
		}
		defer a.Close()
		data := make([]byte, int(size))
		rand.New(rand.NewSource(seed)).Read(data)
		if err := a.Put("k", data); err != nil {
			return false
		}
		got, err := get(a, "k")
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestThrottleScalesWithDevices: with per-device throttling, 4 devices move
// data materially faster than 1 device (the Fig. 10 effect, in wall-clock).
func TestThrottleScalesWithDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock throttle test")
	}
	const size = 4 << 20
	elapsed := func(devs int) time.Duration {
		a, err := Open(Config{Devices: devs, StripeSize: 1 << 20, ReadBW: units.GBps(0.2), WriteBW: units.GBps(0.2)})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		data := make([]byte, size)
		start := time.Now()
		if err := a.Put("k", data); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	t1 := elapsed(1)
	t4 := elapsed(4)
	if t4 >= t1 {
		t.Errorf("4 devices (%v) not faster than 1 device (%v)", t4, t1)
	}
}

// TestChecksumsDetectCorruption: flipping a stored byte surfaces as
// ErrCorrupt on read.
func TestChecksumsDetectCorruption(t *testing.T) {
	a, err := Open(Config{Devices: 1, StripeSize: 64, Checksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	data := bytes.Repeat([]byte{7}, 200)
	if err := a.Put("k", data); err != nil {
		t.Fatal(err)
	}
	if _, err := get(a, "k"); err != nil {
		t.Fatalf("clean read failed: %v", err)
	}
	// Corrupt the backing store directly.
	a.devs[0].back.(*memBackend).data[10] ^= 0xff
	if _, err := get(a, "k"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted read = %v, want ErrCorrupt", err)
	}
	if err := a.ReadInto("k", make([]byte, 200)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted ReadInto = %v, want ErrCorrupt", err)
	}
}

// TestCorruptReadReconciles: a read of a checksummed file-backed object
// whose stored byte was flipped fails with ErrCorrupt, and the flow ledger
// and the array's counters still agree on the bytes moved — the bytes
// crossed from the device either way, so both count them.
func TestCorruptReadReconciles(t *testing.T) {
	a, err := Open(Config{Devices: 1, StripeSize: 64, Checksums: true, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ledger := obs.NewFlowLedger()
	a.SetObservers(nil, nil, ledger, nil)
	if err := a.Put("k", bytes.Repeat([]byte{7}, 200)); err != nil {
		t.Fatal(err)
	}
	f := a.devs[0].back.(fileBackend).f
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0xff}, 10); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadInto("k", make([]byte, 200)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted ReadInto = %v, want ErrCorrupt", err)
	}
	flows, s := ledger.Snapshot(), a.Stats()
	if mismatch := flows.Edge(obs.EdgeHostNVMeRead) - int64(s.BytesRead) + flows.Edge(obs.EdgeHostNVMeWrite) - int64(s.BytesWritten); mismatch != 0 || s.BytesRead != 200 {
		t.Fatalf("ledger read %d / wrote %d B, array read %d / wrote %d B: mismatch %d",
			flows.Edge(obs.EdgeHostNVMeRead), flows.Edge(obs.EdgeHostNVMeWrite), s.BytesRead, s.BytesWritten, mismatch)
	}
}

// TestOpLatencyApplied: per-op latency makes many small reads measurably
// slower than one large read of the same volume.
func TestOpLatencyApplied(t *testing.T) {
	a, err := Open(Config{Devices: 1, StripeSize: 1 << 20, OpLatency: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Put("k", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := get(a, "k"); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("5 reads with 2ms latency took %v, want >= 10ms", elapsed)
	}
}

// TestStatsUnderConcurrency hammers the array from concurrent readers and
// writers while Stats() is polled, then checks the cumulative counters sum
// exactly: bytes and ops per direction, and per-device traffic equal to
// total traffic. Run under -race (make check) this also vets the counter
// locking.
func TestStatsUnderConcurrency(t *testing.T) {
	a := openMem(t, 4)
	const (
		writers    = 4
		readers    = 4
		iterations = 25
		payload    = 777
	)
	// Seed one object per reader so reads never miss.
	for r := 0; r < readers; r++ {
		if err := a.Put(fmt.Sprintf("seed%d", r), bytes.Repeat([]byte{byte(r)}, payload)); err != nil {
			t.Fatal(err)
		}
	}
	base := a.Stats()

	var wg sync.WaitGroup // readers + writers only; the poller drains after
	stop := make(chan struct{})
	pollerDone := make(chan struct{})
	// A poller reads Stats concurrently; its snapshots must be well-formed
	// (never negative, monotonic in total bytes).
	go func() {
		defer close(pollerDone)
		var last units.Bytes
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := a.Stats()
			total := s.BytesRead + s.BytesWritten
			if total < last {
				t.Error("stats went backwards")
				return
			}
			last = total
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(w)}, payload)
			for i := 0; i < iterations; i++ {
				if err := a.Put(fmt.Sprintf("w%d", w), data); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				if _, err := get(a, fmt.Sprintf("seed%d", r)); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	// Release the poller once the workers drain.
	wg.Wait()
	close(stop)
	<-pollerDone

	s := a.Stats()
	wantWritten := base.BytesWritten + units.Bytes(writers*iterations*payload)
	wantRead := base.BytesRead + units.Bytes(readers*iterations*payload)
	if s.BytesWritten != wantWritten {
		t.Errorf("BytesWritten = %v, want %v", s.BytesWritten, wantWritten)
	}
	if s.BytesRead != wantRead {
		t.Errorf("BytesRead = %v, want %v", s.BytesRead, wantRead)
	}
	if s.WriteOps != base.WriteOps+writers*iterations {
		t.Errorf("WriteOps = %d, want %d", s.WriteOps, base.WriteOps+writers*iterations)
	}
	if s.ReadOps != base.ReadOps+readers*iterations {
		t.Errorf("ReadOps = %d, want %d", s.ReadOps, base.ReadOps+readers*iterations)
	}
	var perDev units.Bytes
	for _, b := range deviceBytes(a) {
		perDev += b
	}
	if want := s.BytesRead + s.BytesWritten; perDev != want {
		t.Errorf("per-device traffic sums to %v, want %v", perDev, want)
	}
}

// TestTracerRecordsIO checks SetTracer yields object- and device-level
// spans on the NVMe lanes, one per Put and one per ReadInto.
func TestTracerRecordsIO(t *testing.T) {
	a := openMem(t, 2)
	tr := obs.NewTracer(256)
	a.SetTracer(tr)
	data := bytes.Repeat([]byte{7}, 200) // 4 chunks at stripe 64 -> 2 devices
	if err := a.Put("k", data); err != nil {
		t.Fatal(err)
	}
	if _, err := get(a, "k"); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(data))
	if err := a.ReadInto("k", dst); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	count := func(lane, name string) int {
		n := 0
		for _, s := range spans {
			if s.Lane == lane && s.Name == name {
				n++
			}
		}
		return n
	}
	if got := count(obs.LaneNVMeWrite, "k"); got != 1 {
		t.Errorf("object write spans = %d, want 1", got)
	}
	if got := count(obs.LaneNVMeRead, "k"); got != 2 {
		t.Errorf("object read spans = %d, want 2", got)
	}
	// 200 bytes over stripe 64 is 4 chunks striped over both devices, so
	// each transfer has a span per device.
	for _, dev := range []string{"ssd0", "ssd1"} {
		if got := count(obs.LaneNVMeWrite, dev); got != 1 {
			t.Errorf("device %s write spans = %d, want 1", dev, got)
		}
		if got := count(obs.LaneNVMeRead, dev); got != 2 {
			t.Errorf("device %s read spans = %d, want 2", dev, got)
		}
	}
	// Disabling works mid-stream.
	a.SetTracer(nil)
	before, _ := tr.Recorded()
	if err := a.Put("k2", data); err != nil {
		t.Fatal(err)
	}
	if after, _ := tr.Recorded(); after != before {
		t.Error("spans recorded after SetTracer(nil)")
	}
}

// TestTracerRecordsFailedIO: a Put and a ReadInto that fail on a faulty
// device still record their object span and that device's span, whether
// the strides run inline or through the lanes' dispatchers.
func TestTracerRecordsFailedIO(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"inline", Config{Devices: 2, StripeSize: 64}},
		{"queued", Config{Devices: 2, StripeSize: 64, OpLatency: time.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Open(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { a.Close() })
			data := bytes.Repeat([]byte{7}, 200) // 4 chunks at stripe 64 -> 2 devices
			if err := a.Put("k", data); err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTracer(256)
			a.SetTracer(tr)
			boom := errors.New("media error")
			a.InjectFault(1, boom)
			if err := a.Put("k2", data); !errors.Is(err, boom) {
				t.Fatalf("Put on a faulty device = %v, want %v", err, boom)
			}
			if err := a.ReadInto("k", make([]byte, len(data))); !errors.Is(err, boom) {
				t.Fatalf("ReadInto on a faulty device = %v, want %v", err, boom)
			}
			spans := tr.Spans()
			for _, want := range []obs.Span{
				{Lane: obs.LaneNVMeWrite, Name: "k2"}, {Lane: obs.LaneNVMeWrite, Name: "ssd1"},
				{Lane: obs.LaneNVMeRead, Name: "k"}, {Lane: obs.LaneNVMeRead, Name: "ssd1"},
			} {
				n := 0
				for _, s := range spans {
					if s.Lane == want.Lane && s.Name == want.Name {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s spans named %q = %d, want 1", want.Lane, want.Name, n)
				}
			}
		})
	}
}

// TestPutThenRecycle: Put only borrows its buffer, so the caller may
// scribble on it the moment the call returns without disturbing the stored
// bytes.
func TestPutThenRecycle(t *testing.T) {
	a := openMem(t, 2)
	data := []byte("spilled optimizer state bytes......")
	buf := make([]byte, len(data))
	copy(buf, data)
	if err := a.Put("k", buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xff // the buffer's next use
	}
	got, err := get(a, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reusing the put buffer corrupted stored data")
	}
}

// TestPutSameSizeReusesChunks pins the overwrite fast path: a same-size Put
// keeps the exact chunk layout (no free/realloc churn).
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
	got, err := get(a, "k")
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
	if got, err := get(a, "k"); err != nil || !bytes.Equal(got, third) {
		t.Fatalf("resize overwrite: %v", err)
	}
}

// batchOf is k distinct objects of size bytes each and their keys.
func batchOf(k, size int) (keys []string, data [][]byte) {
	for i := 0; i < k; i++ {
		keys = append(keys, fmt.Sprintf("obj%d", i))
		data = append(data, bytes.Repeat([]byte{byte(i + 1)}, size))
	}
	return keys, data
}

// startAll moves bufs[i] to (write) or from keys[i] for every i as a batch:
// it starts every transfer in order, then waits on each in the same order,
// and joins the failures.
func startAll(a *Array, keys []string, bufs [][]byte, write bool) error {
	tickets := make([]*Ticket, len(keys))
	for i, k := range keys {
		tickets[i] = a.Start(k, bufs[i], write)
	}
	var err error
	for _, x := range tickets {
		err = errors.Join(err, x.Wait())
	}
	return err
}

// TestArrayBatchLayoutMatchesPuts: a batch of Starts lays its new objects
// out in Start order, so its chunks and per-device traffic are exactly those
// of the same Puts in a row — for new keys, for a key stored larger (kept on
// its chunks) and for one stored at its own size (overwritten in place).
func TestArrayBatchLayoutMatchesPuts(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	var data [][]byte
	for i, size := range []int{300, 64, 1000, 129, 5} {
		data = append(data, bytes.Repeat([]byte{byte(i + 1)}, size))
	}
	batch, seq := openMem(t, 3), openMem(t, 3)
	for _, a := range []*Array{batch, seq} {
		if err := a.Put("b", make([]byte, 700)); err != nil {
			t.Fatal(err)
		}
		if err := a.Put("d", make([]byte, 129)); err != nil {
			t.Fatal(err)
		}
	}
	if err := startAll(batch, keys, data, true); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := seq.Put(k, data[i]); err != nil {
			t.Fatal(err)
		}
	}
	if b, s := batch.Stats(), seq.Stats(); fmt.Sprint(b) != fmt.Sprint(s) || fmt.Sprint(deviceBytes(batch)) != fmt.Sprint(deviceBytes(seq)) {
		t.Fatalf("after the batch: stats %+v, devices %v; after the Puts %+v, %v", b, deviceBytes(batch), s, deviceBytes(seq))
	}
	for i, k := range keys {
		if b, s := batch.objs[k].chunks, seq.objs[k].chunks; fmt.Sprint(b) != fmt.Sprint(s) {
			t.Fatalf("%s: batch chunks %v, sequential Puts' %v", k, b, s)
		}
		if got, err := get(batch, k); err != nil || !bytes.Equal(got, data[i]) {
			t.Fatalf("%s: read back %v", k, err)
		}
	}
}

// TestArrayBatchFaultJoinsEveryTransfer: a device fault armed to strike
// mid-batch fails exactly the objects whose stride reaches it after the
// armed count. Once every ticket has been waited on, no stride is queued and
// none is in flight, the failed fresh objects are absent and their chunks
// released, the others are stored whole, and the flow ledger equals the
// array's counters. A batch of reads over all the keys then reads the stored
// objects and reports the absent ones.
func TestArrayBatchFaultJoinsEveryTransfer(t *testing.T) {
	const k, stored, size = 5, 2, 3 << 10
	a, err := Open(schedConfig(3, 64<<20, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ledger := obs.NewFlowLedger()
	a.SetObservers(nil, nil, ledger, nil)
	keys, data := batchOf(k, size) // three 1 KiB stripes each: one per device
	boom := errors.New("media error")
	a.InjectFaultAfter(0, stored, boom) // device 0's lane serves the objects in order
	if err := startAll(a, keys, data, true); !errors.Is(err, boom) {
		t.Fatalf("a batch of writes over a fault = %v, want %v", err, boom)
	}
	if d, n := a.SchedStats().Write.Depth, a.inFlight[laneWrite].Load(); d != 0 || n != 0 {
		t.Fatalf("the batch was waited on with %d strides queued and %d objects in flight", d, n)
	}
	free := 0
	for _, d := range a.devs {
		free += len(d.free)
	}
	s := a.Stats()
	if s.Objects != stored || s.WriteOps != stored || s.BytesWritten != stored*size || free != 3*(k-stored) {
		t.Fatalf("%d objects, %d writes, %d B stored and %d chunks free; want %d, %d, %d and %d",
			s.Objects, s.WriteOps, s.BytesWritten, free, stored, stored, stored*size, 3*(k-stored))
	}
	a.InjectFault(0, nil)
	dst := make([][]byte, k)
	for i := range dst {
		dst[i] = make([]byte, size)
	}
	if err := startAll(a, keys, dst, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a batch of reads over absent objects = %v, want ErrNotFound", err)
	}
	for i := range keys[:stored] {
		if !bytes.Equal(dst[i], data[i]) {
			t.Fatalf("%s: read back other bytes than stored", keys[i])
		}
	}
	flows, s := ledger.Snapshot(), a.Stats()
	if flows.Edge(obs.EdgeHostNVMeWrite) != int64(s.BytesWritten) || flows.Edge(obs.EdgeHostNVMeRead) != int64(s.BytesRead) || s.BytesRead != stored*size {
		t.Fatalf("ledger wrote %d / read %d B, array wrote %d / read %d B",
			flows.Edge(obs.EdgeHostNVMeWrite), flows.Edge(obs.EdgeHostNVMeRead), s.BytesWritten, s.BytesRead)
	}
}

// TestArrayBatchKeepsEveryObjectInFlight: on a throttled array k objects
// started before any is waited on are all in flight at once, in either
// direction, where the same Puts and ReadIntos in a row have one.
func TestArrayBatchKeepsEveryObjectInFlight(t *testing.T) {
	const k = 4
	keys, data := batchOf(k, 3<<10)
	for _, batched := range []bool{false, true} {
		a, err := Open(schedConfig(3, 64<<20, 64<<20))
		if err != nil {
			t.Fatal(err)
		}
		if batched {
			err = errors.Join(startAll(a, keys, data, true), startAll(a, keys, data, false))
		} else {
			for i, key := range keys {
				err = errors.Join(err, a.Put(key, data[i]), a.ReadInto(key, data[i]))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		want := int64(1)
		if batched {
			want = k
		}
		if s := a.Stats(); s.PeakWritesInFlight != want || s.PeakReadsInFlight != want {
			t.Errorf("batched %v: %d writes and %d reads in flight at the peak, want %d", batched, s.PeakWritesInFlight, s.PeakReadsInFlight, want)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
