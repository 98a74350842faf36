package nvme

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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

func TestPutGetRoundTrip(t *testing.T) {
	a := openMem(t, 4)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	if err := a.Put("k", data); err != nil {
		t.Fatal(err)
	}
	got, err := a.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip corrupted data")
	}
	if sz, err := a.Size("k"); err != nil || sz != units.Bytes(len(data)) {
		t.Errorf("Size = %v, %v", sz, err)
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
	got, err := a.Get("k")
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

func TestDeleteAndChunkReuse(t *testing.T) {
	a := openMem(t, 2)
	if err := a.Put("k", make([]byte, 640)); err != nil {
		t.Fatal(err)
	}
	if err := a.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if a.Has("k") {
		t.Error("Has after Delete")
	}
	if err := a.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("second delete = %v, want ErrNotFound", err)
	}
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
	for i, b := range st.PerDeviceBytes {
		if b == 0 {
			t.Errorf("device %d received no traffic", i)
		}
	}
	if st.BytesWritten != units.Bytes(8*64*16) {
		t.Errorf("bytes written = %v", st.BytesWritten)
	}
}

func TestEmptyObject(t *testing.T) {
	a := openMem(t, 2)
	if err := a.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := a.Get("empty")
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
	if _, err := a.Get("k"); err == nil || !errors.Is(err, boom) {
		t.Errorf("Get with faulty device = %v, want media error", err)
	}
	if err := a.Put("k2", data); err == nil {
		t.Error("Put with faulty device should fail")
	}
	a.InjectFault(1, nil)
	if _, err := a.Get("k"); err != nil {
		t.Errorf("Get after fault cleared = %v", err)
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
	got, err := a.Get("weights")
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
				got, err := a.Get(key)
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

func TestKeysSorted(t *testing.T) {
	a := openMem(t, 1)
	for _, k := range []string{"c", "a", "b"} {
		if err := a.Put(k, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	got := a.Keys()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
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
		got, err := a.Get("k")
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
		a, err := Open(Config{Devices: devs, ReadBW: units.GBps(0.2), WriteBW: units.GBps(0.2)})
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
	if _, err := a.Get("k"); err != nil {
		t.Fatalf("clean read failed: %v", err)
	}
	// Corrupt the backing store directly.
	a.devs[0].back.(*memBackend).data[10] ^= 0xff
	if _, err := a.Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted read = %v, want ErrCorrupt", err)
	}
	if err := a.ReadInto("k", make([]byte, 200)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted ReadInto = %v, want ErrCorrupt", err)
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
		if _, err := a.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("5 reads with 2ms latency took %v, want >= 10ms", elapsed)
	}
}

// TestMirrorSurvivesDeviceFailure: RAID-1 reads fall back to the mirror
// when the primary device fails.
func TestMirrorSurvivesDeviceFailure(t *testing.T) {
	a, err := Open(Config{Devices: 3, StripeSize: 64, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	data := bytes.Repeat([]byte{42}, 500)
	if err := a.Put("k", data); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("dead device")
	for dev := 0; dev < 3; dev++ {
		a.InjectFault(dev, boom)
		got, err := a.Get("k")
		if err != nil {
			t.Fatalf("read with device %d down: %v", dev, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("mirror fallback corrupted data with device %d down", dev)
		}
		a.InjectFault(dev, nil)
	}
	// Two adjacent failures kill both primary and mirror of some chunk.
	a.InjectFault(0, boom)
	a.InjectFault(1, boom)
	if _, err := a.Get("k"); err == nil {
		t.Error("read survived loss of both replicas")
	}
}

func TestMirrorRequiresTwoDevices(t *testing.T) {
	if _, err := Open(Config{Devices: 1, Mirror: true}); err == nil {
		t.Error("single-device mirror accepted")
	}
}

// TestDeviceCapacity: Put fails with ErrNoSpace when the array is full, and
// freed space is reusable.
func TestDeviceCapacity(t *testing.T) {
	a, err := Open(Config{Devices: 2, StripeSize: 64, DeviceCapacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Four chunks total fit (2 devices x 128 bytes / 64-byte chunks).
	if err := a.Put("a", make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("b", make([]byte, 64)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-capacity Put = %v, want ErrNoSpace", err)
	}
	if err := a.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("b", make([]byte, 256)); err != nil {
		t.Fatalf("Put after freeing space: %v", err)
	}
}

// TestMirrorCapacityAccounting: mirroring halves usable capacity.
func TestMirrorCapacityAccounting(t *testing.T) {
	a, err := Open(Config{Devices: 2, StripeSize: 64, DeviceCapacity: 128, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Put("a", make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("b", make([]byte, 128)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("mirrored over-capacity Put = %v, want ErrNoSpace", err)
	}
}

func TestScrub(t *testing.T) {
	a, err := Open(Config{Devices: 2, StripeSize: 64, Checksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, k := range []string{"a", "b", "c"} {
		if err := a.Put(k, bytes.Repeat([]byte{k[0]}, 200)); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := a.Scrub()
	if err != nil || len(bad) != 0 {
		t.Fatalf("clean scrub = %v, %v", bad, err)
	}
	// Corrupt one object's first chunk on device 0.
	obj := a.objs["b"]
	a.devs[obj.chunks[0].dev].back.(*memBackend).data[obj.chunks[0].off] ^= 0xff
	bad, err = a.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != "b" {
		t.Errorf("scrub found %v, want [b]", bad)
	}
	// Without checksums, scrubbing is refused.
	plain := openMem(t, 1)
	if _, err := plain.Scrub(); err == nil {
		t.Error("scrub without checksums accepted")
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
				if _, err := a.Get(fmt.Sprintf("seed%d", r)); err != nil {
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
	for _, b := range s.PerDeviceBytes {
		perDev += b
	}
	if want := s.BytesRead + s.BytesWritten; perDev != want {
		t.Errorf("per-device traffic sums to %v, want %v", perDev, want)
	}
}

// TestTracerRecordsIO checks SetTracer yields object- and device-level
// spans on the NVMe lanes, and that ReadInto traces like Get.
func TestTracerRecordsIO(t *testing.T) {
	a := openMem(t, 2)
	tr := obs.NewTracer(256)
	a.SetTracer(tr)
	data := bytes.Repeat([]byte{7}, 200) // 4 chunks at stripe 64 -> 2 devices
	if err := a.Put("k", data); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("k"); err != nil {
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
		t.Errorf("object read spans = %d, want 2 (Get + ReadInto)", got)
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

// TestPutThenRecycle: Put only borrows its buffer, so the caller may
// scribble on it the moment the call returns without disturbing the stored
// bytes.
func TestPutThenRecycle(t *testing.T) {
	a := openMem(t, 2)
	data := []byte("spilled optimizer state bytes......")
	buf := make([]byte, len(data))
	copy(buf, data)
	if err := a.PutClass("k", buf, ClassWriteback); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xff // the buffer's next use
	}
	got, err := a.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reusing the put buffer corrupted stored data")
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
