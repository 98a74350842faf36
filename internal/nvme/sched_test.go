package nvme

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"ratel/internal/units"
)

// --- class order ---

func TestSchedOrderValidation(t *testing.T) {
	inverted := []Class{ClassWriteBehind, ClassWriteback, ClassOptRead, ClassCriticalFetch}
	a, err := Open(Config{Devices: 1, Sched: true, SchedOrder: inverted})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inverted {
		if a.classOrder[i] != inverted[i] {
			t.Fatalf("order[%d] = %v, want %v", i, a.classOrder[i], inverted[i])
		}
	}
	a.Close()
	for _, bad := range [][]Class{
		{ClassCriticalFetch}, // too few
		{ClassCriticalFetch, ClassCriticalFetch, ClassWriteback, ClassWriteBehind}, // duplicate
		{ClassCriticalFetch, ClassOptRead, ClassWriteback, NumClasses},             // unknown class
	} {
		if a, err := Open(Config{Devices: 1, Sched: true, SchedOrder: bad}); err == nil {
			a.Close()
			t.Errorf("Open accepted sched order %v", bad)
		}
	}
}

// --- dequeue policy (white box: drives pickLocked directly) ---

// pickArray builds an Array with just enough state to exercise pickLocked.
func pickArray(sched bool, aging time.Duration) *Array {
	return &Array{schedOn: sched, classOrder: DefaultSchedOrder(), aging: aging}
}

func queued(ln *ioLane, c Class, age time.Duration) *schedItem {
	it := &schedItem{x: &xfer{class: c}, enq: time.Now().Add(-age)}
	ln.q[c].push(it)
	return it
}

func TestPickPriorityOrder(t *testing.T) {
	a := pickArray(true, time.Hour) // aging too long to trigger
	ln := newIOLane()
	wb := queued(ln, ClassWriteBehind, 50*time.Millisecond) // oldest
	or := queued(ln, ClassOptRead, 20*time.Millisecond)
	cf := queued(ln, ClassCriticalFetch, 0) // newest, most urgent
	for i, want := range []*schedItem{cf, or, wb} {
		if got := a.pickLocked(ln); got != want {
			t.Fatalf("pick %d = class %v, want %v", i, got.x.class, want.x.class)
		}
	}
	if a.pickLocked(ln) != nil {
		t.Fatal("drained lane still yields items")
	}
}

func TestPickFCFSIgnoresClass(t *testing.T) {
	a := pickArray(false, time.Hour)
	ln := newIOLane()
	wb := queued(ln, ClassWriteBehind, 50*time.Millisecond)
	cf := queued(ln, ClassCriticalFetch, 20*time.Millisecond)
	or := queued(ln, ClassOptRead, 0)
	for i, want := range []*schedItem{wb, cf, or} { // strict arrival order
		if got := a.pickLocked(ln); got != want {
			t.Fatalf("FCFS pick %d = class %v, want %v", i, got.x.class, want.x.class)
		}
	}
}

func TestPickAgingOverridesPriority(t *testing.T) {
	a := pickArray(true, 5*time.Millisecond)
	ln := newIOLane()
	wb := queued(ln, ClassWriteBehind, 40*time.Millisecond) // starved past aging
	or := queued(ln, ClassOptRead, 10*time.Millisecond)     // also overdue, less so
	cf := queued(ln, ClassCriticalFetch, 0)                 // fresh
	if got := a.pickLocked(ln); got != wb {
		t.Fatalf("first pick = class %v, want most-overdue write-behind", got.x.class)
	}
	if got := a.pickLocked(ln); got != or {
		t.Fatalf("second pick = class %v, want overdue opt-read", got.x.class)
	}
	if got := a.pickLocked(ln); got != cf {
		t.Fatalf("third pick = class %v, want fetch", got.x.class)
	}
}

// --- end-to-end scheduler behavior ---

// throttledConfig is a small scheduled array with per-device bandwidth so
// transfers ride the dispatcher queues instead of the untimed inline path.
func schedConfig(devices int, readBW, writeBW units.BytesPerSecond) Config {
	return Config{
		Devices:    devices,
		StripeSize: 1 << 10,
		ReadBW:     readBW,
		WriteBW:    writeBW,
		Sched:      true,
	}
}

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
	for c := Class(0); c < NumClasses; c++ {
		key := "k/" + c.String()
		if err := a.PutClass(key, data, c); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, len(data))
		if err := a.ReadIntoClass(key, dst, c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, data) {
			t.Fatalf("class %v ReadIntoClass corrupted data", c)
		}
	}
	st := a.SchedStats()
	for c := Class(0); c < NumClasses; c++ {
		s := st.PerClass[c]
		if s.Enqueued == 0 || s.Dispatched != s.Enqueued {
			t.Errorf("class %v: enqueued %d dispatched %d, want equal and > 0", c, s.Enqueued, s.Dispatched)
		}
		if s.Depth != 0 {
			t.Errorf("class %v: residual queue depth %d after quiesce", c, s.Depth)
		}
		if s.DepthPeak == 0 {
			t.Errorf("class %v: depth peak never moved", c)
		}
	}
	if err := a.PutClass("k", data, Class(NumClasses)); err == nil {
		t.Error("invalid class accepted")
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
	go func() { done <- a.PutClass("cold", big, ClassWriteBehind) }()
	time.Sleep(5 * time.Millisecond) // let the write occupy its lane
	start := time.Now()
	dst := make([]byte, len(small))
	if err := a.ReadIntoClass("hot", dst, ClassCriticalFetch); err != nil {
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
		Sched:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	data := make([]byte, 9<<10) // 9 stripes: runs of 8 + 1
	if err := a.PutClass("k", data, ClassWriteback); err != nil {
		t.Fatal(err)
	}
	if got := a.SchedStats().PerClass[ClassWriteback].Coalesced; got != 7 {
		t.Fatalf("write coalesced %d stripe submissions, want 7 (run of 8 + run of 1)", got)
	}
	dst := make([]byte, len(data))
	if err := a.ReadIntoClass("k", dst, ClassOptRead); err != nil {
		t.Fatal(err)
	}
	if got := a.SchedStats().PerClass[ClassOptRead].Coalesced; got != 7 {
		t.Fatalf("read coalesced %d stripe submissions, want 7", got)
	}
}

func TestFCFSDoesNotCoalesce(t *testing.T) {
	a, err := Open(Config{
		Devices:    1,
		StripeSize: 1 << 10,
		OpLatency:  10 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Put("k", make([]byte, 8<<10)); err != nil {
		t.Fatal(err)
	}
	for c := Class(0); c < NumClasses; c++ {
		if got := a.SchedStats().PerClass[c].Coalesced; got != 0 {
			t.Fatalf("FCFS coalesced %d submissions on class %v, want 0", got, c)
		}
	}
}

// --- throttle edge cases (zero-byte, sub-microsecond, fairness) ---

func TestThrottleZeroByteTransfers(t *testing.T) {
	a, err := Open(Config{
		Devices:    2,
		StripeSize: 64,
		HostCap:    1 << 20,
		ReadBW:     1 << 20,
		WriteBW:    1 << 20,
		Sched:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	start := time.Now()
	if err := a.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := a.Get("empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v bytes, err %v", len(got), err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("zero-byte transfers took %v (throttle charged for nothing)", el)
	}
	// Zero and negative sizes must not move the host throttle window.
	a.hostMu.Lock()
	slot := a.hostSlot
	a.hostMu.Unlock()
	a.throttleHost(0)
	a.throttleHost(-1)
	a.hostMu.Lock()
	defer a.hostMu.Unlock()
	if a.hostSlot != slot {
		t.Fatal("zero/negative-byte throttleHost advanced the busy window")
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
			errs[i] = a.ReadIntoClass(keys[i], bufs[i], ClassOptRead)
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
// wake-up. Holds on the FCFS lane and on the duplex lanes.
func TestThrottleNeverExceedsConfigured(t *testing.T) {
	const n, size = 16, 16 << 10
	const bw, lat = units.BytesPerSecond(64 << 20), 200 * time.Microsecond
	floor := time.Duration(units.TransferNanos(units.Bytes(n*size), bw)) + n*lat
	for _, sched := range []bool{false, true} {
		for rep := 0; rep < 3; rep++ {
			if el := queuedReads(t, Config{Sched: sched, ReadBW: bw, OpLatency: lat}, n, size); el < floor {
				t.Fatalf("sched=%v: %d queued reads finished in %v, before the modeled floor %v", sched, n, el, floor)
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
	for _, sched := range []bool{false, true} {
		el := queuedReads(t, Config{Sched: sched, ReadBW: bw}, n, size)
		t.Logf("sched=%v: %d×%d B in %v (ideal %v, %.2f× configured)", sched, n, size, el, ideal, float64(ideal)/float64(el))
		if float64(ideal) < 0.7*float64(el) {
			t.Fatalf("sched=%v: backlogged lane sustained %.2f× the configured bandwidth, want >= 0.7×",
				sched, float64(ideal)/float64(el))
		}
	}
}

func TestThrottleHostSubMicrosecondAggregate(t *testing.T) {
	// 3000 transfers of 7 bytes at 100 MB/s: 70ns each — sub-microsecond —
	// but the aggregate must still pace at ~210µs minimum.
	a, err := Open(Config{Devices: 1, StripeSize: 64, HostCap: 100 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	start := time.Now()
	for i := 0; i < 3000; i++ {
		a.throttleHost(7)
	}
	a.hostMu.Lock()
	modeled := a.hostSlot.Sub(start)
	a.hostMu.Unlock()
	if want := 3000 * 7 * time.Second / (100 << 20); modeled < want*9/10 {
		t.Fatalf("3000 sub-µs transfers modeled %v of host-link time, want >= %v", modeled, want)
	}
}

func TestThrottleHostConcurrentFairness(t *testing.T) {
	// Concurrent writers share the host cap: the aggregate must pace at the
	// cap (lower bound), every writer must finish, and no single writer may
	// be starved to many times its fair share of the wall clock.
	a, err := Open(Config{Devices: 1, StripeSize: 64, HostCap: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const (
		writers = 8
		ops     = 20
		size    = 8 << 10
	)
	elapsed := make([]time.Duration, writers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, size)
			for i := 0; i < ops; i++ {
				if err := a.Put(fmt.Sprintf("w%d", w), buf); err != nil {
					t.Error(err)
					return
				}
			}
			elapsed[w] = time.Since(start)
		}(w)
	}
	wg.Wait()
	total := time.Since(start)
	modeled := time.Duration(float64(writers*ops*size) / float64(64<<20) * float64(time.Second))
	if total < modeled*8/10 {
		t.Fatalf("%d writers finished in %v, cap allows no less than ~%v", writers, total, modeled)
	}
	// Fairness: with interleaved pacing every writer finishes near the end
	// of the window; a serialized (sleep-under-lock) implementation lets
	// early winners finish in 1/writers of the time.
	sorted := append([]time.Duration(nil), elapsed...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if first := sorted[0]; first < total/4 {
		t.Fatalf("fastest writer finished at %v of %v total — throttle is serving writers unfairly", first, total)
	}
}

// --- lifecycle ---

func TestSchedCloseSemantics(t *testing.T) {
	a, err := Open(schedConfig(2, 64<<20, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PutClass("k", make([]byte, 4<<10), ClassWriteback); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if err := a.PutClass("k2", make([]byte, 4<<10), ClassWriteback); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	dst := make([]byte, 4<<10)
	if err := a.ReadIntoClass("k", dst, ClassCriticalFetch); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadInto after Close = %v, want ErrClosed", err)
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
				err := a.PutClass(fmt.Sprintf("w%d", w), buf, ClassWriteBehind)
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

// --- starvation soak (satellite: flooded write-behind vs critical fetch) ---

func TestSchedCriticalFetchBoundedUnderFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test in -short mode")
	}
	// Flood both lanes: bulk write-behind on the write lanes and bulk
	// opt-read traffic on the read lanes, then measure critical-fetch
	// latency through the storm. Priority dequeue + duplex lanes must keep
	// the P99 bounded near one in-service bulk stride, not the queue depth.
	a, err := Open(schedConfig(2, 64<<20, 16<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	hot := make([]byte, 8<<10)
	if err := a.Put("hot", hot); err != nil {
		t.Fatal(err)
	}
	bulk := make([]byte, 128<<10)
	if err := a.PutClass("bulk-src", bulk, ClassWriteback); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) { // write-behind flood
			defer wg.Done()
			buf := make([]byte, len(bulk))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := a.PutClass(fmt.Sprintf("flood%d", w), buf, ClassWriteBehind); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // bulk read pressure on the fetch lanes
		defer wg.Done()
		buf := make([]byte, len(bulk))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := a.ReadIntoClass("bulk-src", buf, ClassOptRead); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const probes = 120
	lat := make([]time.Duration, 0, probes)
	dst := make([]byte, len(hot))
	for i := 0; i < probes; i++ {
		start := time.Now()
		if err := a.ReadIntoClass("hot", dst, ClassCriticalFetch); err != nil {
			t.Fatal(err)
		}
		lat = append(lat, time.Since(start))
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	// One in-service 64 KiB bulk stride at 32 MB/s(read, half the object on
	// each device) is ~2ms; add the aging bound and generous CI slack. A
	// FCFS array under the same flood queues the fetch behind the whole
	// backlog and blows far past this.
	if limit := 60 * time.Millisecond; p99 > limit {
		t.Fatalf("critical-fetch P99 %v under write-behind flood, want <= %v (median %v)",
			p99, limit, lat[len(lat)/2])
	}
}
