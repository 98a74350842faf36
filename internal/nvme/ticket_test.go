package nvme

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ratel/internal/obs"
)

// ticketConfigs are the two ways a transfer moves: inline, before Start
// returns, and queued on the device lanes.
var ticketConfigs = []struct {
	name string
	cfg  Config
}{
	{"inline", Config{Devices: 3, StripeSize: 64}},
	{"queued", Config{Devices: 3, StripeSize: 64, OpLatency: 20 * time.Microsecond}},
}

// openTicket opens cfg with a flow ledger installed, closed at cleanup.
func openTicket(t *testing.T, cfg Config) (*Array, *obs.FlowLedger) {
	t.Helper()
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	ledger := obs.NewFlowLedger()
	a.SetObservers(nil, nil, ledger, nil)
	return a, ledger
}

// TestTicketMatchesPutAndReadInto: the same writes, overwrites and reads
// moved as tickets — every one started before any is waited on — leave the
// array exactly as Put and ReadInto in a row do: the same chunks per key,
// the same counters, per device too, and the same ledger bytes, and the
// same bytes read.
func TestTicketMatchesPutAndReadInto(t *testing.T) {
	for _, tc := range ticketConfigs {
		t.Run(tc.name, func(t *testing.T) {
			seq, seqLedger := openTicket(t, tc.cfg)
			tick, tickLedger := openTicket(t, tc.cfg)
			keys, data := batchOf(4, 300)
			data[2] = data[2][:129] // a short last stripe
			for _, a := range []*Array{seq, tick} {
				if err := a.Put(keys[1], make([]byte, 700)); err != nil { // laid out again at its new size
					t.Fatal(err)
				}
			}
			for i, k := range keys {
				if err := seq.Put(k, data[i]); err != nil {
					t.Fatal(err)
				}
			}
			var writes []*Ticket
			for i, k := range keys {
				writes = append(writes, tick.Start(k, data[i], true))
			}
			for _, w := range writes {
				if err := w.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			seqRead, tickRead := make([][]byte, len(keys)), make([][]byte, len(keys))
			var reads []*Ticket
			for i, k := range keys {
				seqRead[i], tickRead[i] = make([]byte, len(data[i])), make([]byte, len(data[i]))
				if err := seq.ReadInto(k, seqRead[i]); err != nil {
					t.Fatal(err)
				}
				reads = append(reads, tick.Start(k, tickRead[i], false))
			}
			for i, r := range reads {
				if err := r.Wait(); err != nil || !bytes.Equal(tickRead[i], data[i]) || !bytes.Equal(seqRead[i], data[i]) {
					t.Fatalf("%s read back other bytes than stored (%v)", keys[i], err)
				}
			}
			for _, k := range keys {
				if s, k2 := fmt.Sprint(seq.objs[k].chunks), fmt.Sprint(tick.objs[k].chunks); s != k2 {
					t.Fatalf("%s: chunks %s after Put, %s after a ticket", k, s, k2)
				}
			}
			s, k := seq.Stats(), tick.Stats()
			s.PeakReadsInFlight, s.PeakWritesInFlight = k.PeakReadsInFlight, k.PeakWritesInFlight // one at a time vs all at once
			if fmt.Sprint(s, deviceBytes(seq)) != fmt.Sprint(k, deviceBytes(tick)) {
				t.Fatalf("stats %+v %v after Put and ReadInto, %+v %v after tickets", s, deviceBytes(seq), k, deviceBytes(tick))
			}
			if s, k := seqLedger.Snapshot(), tickLedger.Snapshot(); s != k || k.Edge(obs.EdgeHostNVMeWrite) != int64(tick.Stats().BytesWritten) {
				t.Fatalf("ledger %+v after Put and ReadInto, %+v after tickets", s, k)
			}
		})
	}
}

// TestTicketFaultSurfacesAtWait: Start does not fail; a device fault comes
// back from the ticket's Wait, naming the key and the device, for a write and
// for a read, and a failed fresh write is not stored.
func TestTicketFaultSurfacesAtWait(t *testing.T) {
	for _, tc := range ticketConfigs {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := openTicket(t, tc.cfg)
			data := bytes.Repeat([]byte{7}, 200) // 4 chunks at stripe 64 -> every device
			if err := a.Put("stored", data); err != nil {
				t.Fatal(err)
			}
			boom := errors.New("media error")
			a.InjectFault(1, boom)
			for _, tt := range []struct {
				key   string
				write bool
			}{{"fresh", true}, {"stored", false}} {
				err := a.Start(tt.key, make([]byte, len(data)), tt.write).Wait()
				if !errors.Is(err, boom) || !strings.Contains(err.Error(), fmt.Sprintf("%q", tt.key)) || !strings.Contains(err.Error(), "device 1") {
					t.Fatalf("write=%v: Wait = %v, want %v naming %q and device 1", tt.write, err, boom, tt.key)
				}
			}
			if _, ok := a.objs["fresh"]; ok {
				t.Fatal("a failed fresh write was stored")
			}
		})
	}
}

// TestTicketTimesItsTransferNotItsWait: a ticket waited on after its
// transfer has finished records its span and its latency up to its last
// stride, not up to the Wait: both end no later than the moment Done was
// first seen true.
func TestTicketTimesItsTransferNotItsWait(t *testing.T) {
	for _, tc := range ticketConfigs {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := openTicket(t, tc.cfg)
			tr, lat := obs.NewTracer(64), obs.NewHistogram()
			a.SetTracer(tr)
			a.SetObservers(nil, lat, nil, nil)
			start := time.Now()
			x := a.Start("k", make([]byte, 4<<10), true)
			for !x.Done() {
				runtime.Gosched()
			}
			finished, seen := time.Now(), tr.Now()
			if err := x.Wait(); err != nil {
				t.Fatal(err)
			}
			spans := 0
			for _, s := range tr.Spans() {
				if s.Lane == obs.LaneNVMeWrite && s.Name == "k" {
					spans++
					if s.End > seen || s.End < s.Start {
						t.Fatalf("span %v–%v, transfer seen finished at %v", s.Start, s.End, seen)
					}
				}
			}
			if spans != 1 || lat.Count() != 1 || time.Duration(lat.Max()) > finished.Sub(start) {
				t.Fatalf("%d spans, %d latencies, longest %v; want one of each, at most %v", spans, lat.Count(), time.Duration(lat.Max()), finished.Sub(start))
			}
		})
	}
}

// TestTicketStartedBeforeCloseSettles: tickets started before Close — a
// write and a read still on the lanes — settle after it: the write is
// stored and the read brings its bytes. A ticket started after Close fails
// with ErrClosed at its Wait.
func TestTicketStartedBeforeCloseSettles(t *testing.T) {
	a, err := Open(schedConfig(2, 64<<20, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{3}, 64<<10)
	if err := a.Put("old", data); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(data))
	w, r := a.Start("new", data, true), a.Start("old", dst, false)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(w.Wait(), r.Wait()); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.objs["new"]; !ok || !bytes.Equal(dst, data) {
		t.Fatalf("after Close: write stored %v, read brought its bytes %v", ok, bytes.Equal(dst, data))
	}
	if err := a.Start("late", data, true).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("a ticket started after Close = %v, want ErrClosed", err)
	}
}
