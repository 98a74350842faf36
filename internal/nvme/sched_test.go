package nvme

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ratel/internal/units"
)

// --- dequeue order (white box: drives enqueue and nextItem directly) ---

// TestLaneServesArrivalOrder: reads and writes enqueued interleaved come off
// a duplex device's lanes in arrival order per direction, and off the FCFS
// oracle's shared lane in global arrival order, whatever the direction.
func TestLaneServesArrivalOrder(t *testing.T) {
	arrivals := []bool{false, true, true, false, false, true} // write?
	for _, fcfs := range []bool{false, true} {
		a := &Array{}
		lanes := newLanes(fcfs)
		for i, write := range arrivals {
			a.enqueue(lanes[dir(write)], &schedItem{x: &Ticket{write: write}, w: i})
		}
		var want [2][]int // per lane: the arrival indexes it must serve, in order
		for i, write := range arrivals {
			l := dir(write)
			if fcfs {
				l = laneRead
			}
			want[l] = append(want[l], i)
		}
		for l, ln := range lanes {
			if fcfs && l == laneWrite {
				continue // the shared lane, drained above
			}
			ln.closed = true
			var got []int
			for it := ln.nextItem(); it != nil; it = ln.nextItem() {
				got = append(got, it.w)
			}
			if fmt.Sprint(got) != fmt.Sprint(want[l]) {
				t.Errorf("fcfs=%v lane %d served %v, want %v", fcfs, l, got, want[l])
			}
		}
		st := a.SchedStats()
		if st.Read.Enqueued != 3 || st.Write.Enqueued != 3 || st.Read.DepthPeak != 3 || st.Write.DepthPeak != 3 {
			t.Errorf("fcfs=%v: counters %+v, want 3 enqueued and a depth peak of 3 per direction", fcfs, st)
		}
	}
}

// --- end-to-end scheduler behavior ---

// schedConfig is a small array with per-device bandwidth so transfers ride
// the dispatcher queues instead of the untimed inline path.
func schedConfig(devices int, readBW, writeBW units.BytesPerSecond) Config {
	return Config{
		Devices:    devices,
		StripeSize: 1 << 10,
		ReadBW:     readBW,
		WriteBW:    writeBW,
	}
}

// TestZeroConfigIsTheEngineArray: a Config that sets nothing but the device
// count and a latency opens the array the engine runs — distinct read and
// write lanes, coalesced stripe submissions, 4 KiB stripes — not the FCFS
// oracle.
func TestZeroConfigIsTheEngineArray(t *testing.T) {
	a, err := Open(Config{Devices: 1, OpLatency: 10 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if d := a.devs[0]; d.lanes[laneRead] == d.lanes[laneWrite] {
		t.Fatal("reads and writes share one lane")
	}
	data := make([]byte, 9*4096)
	if err := a.Put("k", data); err != nil {
		t.Fatal(err)
	}
	if n := len(a.objs["k"].chunks); n != 9 {
		t.Fatalf("a %d-byte object is %d chunks, want 9 stripes of 4 KiB", len(data), n)
	}
	if err := a.ReadInto("k", data); err != nil {
		t.Fatal(err)
	}
	st := a.SchedStats()
	if st.Write.Coalesced == 0 || st.Read.Coalesced == 0 {
		t.Fatalf("no stripe submissions coalesced (write %d, read %d)", st.Write.Coalesced, st.Read.Coalesced)
	}
}

// TestSchedRoundTripAllClasses: both transfer directions move data intact
// and account every stride item they queue on their own counters.
func TestSchedRoundTripAllClasses(t *testing.T) {
	a, err := Open(schedConfig(3, 512<<20, 512<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i * 7)
	}
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
	st := a.SchedStats()
	for name, s := range map[string]SchedLaneStats{"read": st.Read, "write": st.Write} {
		if s.Enqueued != 3 || s.Dispatched != s.Enqueued {
			t.Errorf("%s: enqueued %d dispatched %d, want 3 (one per device) and equal", name, s.Enqueued, s.Dispatched)
		}
		if s.Depth != 0 {
			t.Errorf("%s: residual queue depth %d after quiesce", name, s.Depth)
		}
		if s.DepthPeak == 0 {
			t.Errorf("%s: depth peak never moved", name)
		}
	}
}

func TestSchedDuplexReadsBypassWrites(t *testing.T) {
	// Write lane slow, read lane fast: a read issued while a large write is
	// in flight must complete on its own lane instead of queueing behind
	// the write — the duplex consumer-SSD shape.
	a, err := Open(schedConfig(1, 256<<20, 2<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	small := make([]byte, 8<<10)
	if err := a.Put("hot", small); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 512<<10) // ~256ms on the write lane
	done := make(chan error, 1)
	go func() { done <- a.Put("cold", big) }()
	time.Sleep(5 * time.Millisecond) // let the write occupy its lane
	start := time.Now()
	dst := make([]byte, len(small))
	if err := a.ReadInto("hot", dst); err != nil {
		t.Fatal(err)
	}
	fetch := time.Since(start)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The read costs ~31µs of modeled bandwidth; allow generous scheduling
	// slack but stay far under the write's quarter second.
	if fetch > 100*time.Millisecond {
		t.Fatalf("fetch took %v while write-behind held the write lane (duplex broken?)", fetch)
	}
}

func TestSchedCoalescingMergesAdjacentStripes(t *testing.T) {
	// One device, latency-only throttle: a fresh object's chunks land at
	// consecutive offsets, so a stride is one coalesced run per coalesceMax
	// stripes, paying one OpLatency each instead of one per stripe.
	a, err := Open(Config{
		Devices:    1,
		StripeSize: 1 << 10,
		OpLatency:  50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	data := make([]byte, 9<<10) // 9 stripes: runs of 8 + 1
	if err := a.Put("k", data); err != nil {
		t.Fatal(err)
	}
	if got := a.SchedStats().Write.Coalesced; got != 7 {
		t.Fatalf("write coalesced %d stripe submissions, want 7 (run of 8 + run of 1)", got)
	}
	dst := make([]byte, len(data))
	if err := a.ReadInto("k", dst); err != nil {
		t.Fatal(err)
	}
	if got := a.SchedStats().Read.Coalesced; got != 7 {
		t.Fatalf("read coalesced %d stripe submissions, want 7", got)
	}
}

func TestFCFSDoesNotCoalesce(t *testing.T) {
	a, err := Open(Config{
		Devices:    1,
		StripeSize: 1 << 10,
		OpLatency:  10 * time.Microsecond,
		FCFS:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	data := make([]byte, 8<<10)
	if err := a.Put("k", data); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadInto("k", data); err != nil {
		t.Fatal(err)
	}
	if st := a.SchedStats(); st.Read.Coalesced != 0 || st.Write.Coalesced != 0 {
		t.Fatalf("FCFS coalesced %d read and %d write submissions, want 0", st.Read.Coalesced, st.Write.Coalesced)
	}
}

// --- throttle edge cases (zero-byte, sub-microsecond) ---

func TestThrottleZeroByteTransfers(t *testing.T) {
	a, err := Open(Config{
		Devices:    2,
		StripeSize: 64,
		ReadBW:     1 << 20,
		WriteBW:    1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	start := time.Now()
	if err := a.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := get(a, "empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v bytes, err %v", len(got), err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("zero-byte transfers took %v (throttle charged for nothing)", el)
	}
}

func TestThrottleLaneSubMicrosecondCarry(t *testing.T) {
	// Each charge is ~0.33ns — below Duration resolution, so without the
	// fractional carry every charge would round down to free. The carry
	// must walk 1/3 → 2/3 → wrap (emitting a whole nanosecond), and stay
	// in [0,1) forever after.
	a := &Array{cfg: Config{}}
	ln := newIOLane()
	charge := func() {
		a.throttleLane(ln, time.Time{}, 1, units.BytesPerSecond(3_000_000_000))
		if ln.carry < 0 || ln.carry >= 1 {
			t.Fatalf("carry %v out of [0,1)", ln.carry)
		}
	}
	charge()
	if ln.carry < 0.2 || ln.carry > 0.5 {
		t.Fatalf("after 1 charge carry = %v, want ~1/3", ln.carry)
	}
	charge()
	if ln.carry < 0.5 || ln.carry > 0.8 {
		t.Fatalf("after 2 charges carry = %v, want ~2/3", ln.carry)
	}
	charge() // remainder crosses 1.0: a whole nanosecond is charged
	if ln.carry > 0.1 {
		t.Fatalf("after 3 charges carry = %v, want wrap to ~0 (1ns emitted)", ln.carry)
	}
	for i := 0; i < 300; i++ {
		charge()
	}
}

// queuedReads writes n objects of size bytes on a one-device array, then
// reads them all at once from n goroutines — a backlogged read lane — and
// returns the time from just before the first read was issued until the
// last one returned.
func queuedReads(t *testing.T, cfg Config, n, size int) time.Duration {
	t.Helper()
	cfg.Devices = 1
	cfg.StripeSize = size
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	keys := make([]string, n)
	bufs := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj%d", i)
		bufs[i] = make([]byte, size)
		if err := a.Put(keys[i], bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = a.ReadInto(keys[i], bufs[i])
		}(i)
	}
	wg.Wait()
	el := time.Since(start)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return el
}

// TestThrottleNeverExceedsConfigured is the one-sided, exact half of the
// pacing rule: N transfers queued at time t never all finish before
// t + bytes/bw + N·OpLatency, however the lane catches up after a late
// wake-up. Holds on the duplex lanes and on the FCFS lane.
func TestThrottleNeverExceedsConfigured(t *testing.T) {
	const n, size = 16, 16 << 10
	const bw, lat = units.BytesPerSecond(64 << 20), 200 * time.Microsecond
	floor := time.Duration(units.TransferNanos(units.Bytes(n*size), bw)) + n*lat
	for _, fcfs := range []bool{false, true} {
		for rep := 0; rep < 3; rep++ {
			if el := queuedReads(t, Config{FCFS: fcfs, ReadBW: bw, OpLatency: lat}, n, size); el < floor {
				t.Fatalf("fcfs=%v: %d queued reads finished in %v, before the modeled floor %v", fcfs, n, el, floor)
			}
		}
	}
}

// TestThrottleBackloggedLaneSustainsBandwidth is the loose other half: a
// backlogged lane of 16 KiB items sustains at least 0.7× the configured
// bandwidth. Each item is ~0.8 ms of modeled time, about what one
// time.Sleep overshoots by on a busy host; a throttle that restarts the
// busy interval at every wake-up loses that much per item and lands near
// half the configured rate.
func TestThrottleBackloggedLaneSustainsBandwidth(t *testing.T) {
	const n, size = 48, 16 << 10
	const bw = units.BytesPerSecond(20 << 20)
	ideal := time.Duration(units.TransferNanos(units.Bytes(n*size), bw))
	for _, fcfs := range []bool{false, true} {
		el := queuedReads(t, Config{FCFS: fcfs, ReadBW: bw}, n, size)
		t.Logf("fcfs=%v: %d×%d B in %v (ideal %v, %.2f× configured)", fcfs, n, size, el, ideal, float64(ideal)/float64(el))
		if float64(ideal) < 0.7*float64(el) {
			t.Fatalf("fcfs=%v: backlogged lane sustained %.2f× the configured bandwidth, want >= 0.7×",
				fcfs, float64(ideal)/float64(el))
		}
	}
}

// --- lifecycle ---

// TestSchedCloseSemantics: Close returns only once the write in flight has
// been served, is idempotent, fails later transfers with ErrClosed and
// leaves no dispatcher behind — on the duplex lanes and on the FCFS lane.
func TestSchedCloseSemantics(t *testing.T) {
	for _, fcfs := range []bool{false, true} {
		t.Run(fmt.Sprintf("fcfs=%v", fcfs), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := schedConfig(2, 64<<20, 64<<20)
			cfg.FCFS = fcfs
			a, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Put("k", make([]byte, 4<<10)); err != nil {
				t.Fatal(err)
			}
			// ~8 ms of throttled write per device, under way at Close.
			const big = 1 << 20
			putErr := make(chan error, 1)
			go func() { putErr <- a.Put("big", make([]byte, big)) }()
			time.Sleep(2 * time.Millisecond)
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			var served units.Bytes
			for _, b := range deviceBytes(a) {
				served += b
			}
			if err := <-putErr; err == nil && served != 4<<10+big {
				t.Fatalf("Close returned with %v served, want %v", served, units.Bytes(4<<10+big))
			}
			if err := a.Close(); err != nil {
				t.Fatal("second Close:", err)
			}
			if err := a.Put("k2", make([]byte, 4<<10)); !errors.Is(err, ErrClosed) {
				t.Fatalf("Put after Close = %v, want ErrClosed", err)
			}
			dst := make([]byte, 4<<10)
			if err := a.ReadInto("k", dst); !errors.Is(err, ErrClosed) {
				t.Fatalf("ReadInto after Close = %v, want ErrClosed", err)
			}
			for i := 0; runtime.NumGoroutine() > baseline; i++ {
				if i > 1000 {
					t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func TestSchedCloseUnderLoad(t *testing.T) {
	// Close while transfers are in flight must join cleanly: in-flight
	// items complete, late arrivals get ErrClosed, nothing hangs.
	a, err := Open(schedConfig(2, 8<<20, 8<<20))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 32<<10)
			for i := 0; i < 8; i++ {
				err := a.Put(fmt.Sprintf("w%d", w), buf)
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("unexpected error under close: %v", err)
				}
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
