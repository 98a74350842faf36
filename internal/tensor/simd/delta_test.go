package simd

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// deltaSweepStride is the step between the patterns TestDeltaCodecAllPatterns
// runs: every one, unless race_test.go says otherwise.
var deltaSweepStride uint64 = 1

// TestDeltaCodecAllPatterns runs every one of the 2^32 fp32 bit patterns
// through the codec as masters, with P16 = fp16 of each: the installed P16 is
// the reference rounding's, exactly the patterns whose distance from it does
// not fit 13 bits are escapes (each recorded once, in order, with its bits),
// every other pattern's Δ is that distance, and decoding the plane packed
// 13 bits a Δ and unpacked gives back every pattern bit for bit — NaN
// payloads, signaling NaNs and fp32 subnormals included. Under -short (and
// the race detector) it runs every 4099th pattern.
func TestDeltaCodecAllPatterns(t *testing.T) {
	const batch = 1 << 16
	stride := deltaSweepStride
	if testing.Short() {
		stride = 4099
	}
	total := (uint64(1)<<32 + stride - 1) / stride
	batches := (total + batch - 1) / batch
	var next, escapes atomic.Uint64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, w, q := make([]float32, batch), make([]float32, batch), make([]float32, batch)
			d, out, packed := make([]byte, 2*batch), make([]byte, EscapeBytes*batch), make([]byte, DeltaBytes(batch))
			for b := next.Add(1) - 1; b < batches; b = next.Add(1) - 1 {
				n := int(min(batch, total-b*batch))
				for i := range n {
					p[i] = math.Float32frombits(uint32((b*batch + uint64(i)) * stride))
				}
				nesc := DeltaEncode(d[:2*n], p[:n], w[:n], 0, out)
				escapes.Add(uint64(nesc))
				rec := out[:EscapeBytes*nesc]
				for i, x := range p[:n] {
					h := math.Float32bits(HalfToFloat32(Float32ToHalf(x)))
					if got := math.Float32bits(w[i]); got != h {
						t.Errorf("master %#08x: P16 %#08x, reference %#08x", math.Float32bits(x), got, h)
						return
					}
					dl, stored := int32(math.Float32bits(x)-h), int16(uint16(d[2*i])|uint16(d[2*i+1])<<8)
					if -4096 <= dl && dl <= 4095 {
						if stored != int16(dl) {
							t.Errorf("master %#08x: Δ %d stored as %d", math.Float32bits(x), dl, stored)
							return
						}
						continue
					}
					if len(rec) < EscapeBytes || binary.LittleEndian.Uint64(rec) != uint64(math.Float32bits(x))<<32|uint64(i) || stored != 0 {
						t.Errorf("master %#08x (Δ %d) is not the next escape record", math.Float32bits(x), dl)
						return
					}
					rec = rec[EscapeBytes:]
				}
				if len(rec) != 0 {
					t.Errorf("batch %d: %d escape records for masters that fit", b, len(rec)/EscapeBytes)
					return
				}
				PackDelta(packed, d[:2*n])
				clear(d)
				UnpackDelta(d[:2*n], packed[:DeltaBytes(n)])
				DeltaDecode(q[:n], d, w, 0, out[:EscapeBytes*nesc])
				for i := range n {
					if math.Float32bits(q[i]) != math.Float32bits(p[i]) {
						t.Errorf("master %#08x decodes to %#08x", math.Float32bits(p[i]), math.Float32bits(q[i]))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d of %d patterns escape", escapes.Load(), total)
}

// deltaClasses are masters at the codec's edges: signed zeros, fp32
// subnormals, fp16 subnormals (escapes), the fp16 normal boundary, fp16's
// largest value and the values that round past it to Inf (escapes, but for
// the fp32 maximum, one ulp below Inf), infinities, and NaNs whose payloads
// lie within 16 bits of the canonical quiet NaN or far from it (escapes).
var deltaClasses = []uint32{
	0x00000000, 0x80000000,
	0x00000001, 0x807fffff, 0x00007fff,
	0x33800000, 0x358637bd, 0xb64912d0, 0x37000001,
	0x387fffff, 0x38800000, 0x38800fff,
	0x477fe000, 0x477fefff, 0x477ff000, 0x49742400, 0x7f7fffff,
	0x7f800000, 0xff800000,
	0x7fc00000, 0x7fc01234, 0xffc00001, 0x7fa00000, 0x7fffffff,
}

// TestAdamDeltaLevelsMatchReference: the Δ walk on every level leaves what
// the reference element arithmetic (deltaUpdate) leaves — moments, P16, Δ and
// escape records, bit for bit, NaN by class — on masters from deltaClasses at
// random positions, at the first and last element of the walk and of each
// call, with escapes coming in and going out: zero gradients at learning
// rate 0 keep most masters where they are, others move them in and out of
// the escape range. The walk is cut into calls at ragged points, each with
// its base, as the optimizer cuts a piece at its tensors and chunks.
func TestAdamDeltaLevelsMatchReference(t *testing.T) {
	onEveryLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(50))
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 8191, 8193} {
			for _, lr := range []float64{0, 1e-3, 1e-6} {
				k := adamTestCoef(1+rng.Intn(20), 0)
				k.LR = lr
				p, m, v, g := adamTestState(rng, n)
				for i := range p {
					switch {
					case i == 0 || i == n-1 || rng.Intn(4) == 0:
						p[i] = math.Float32frombits(deltaClasses[rng.Intn(len(deltaClasses))])
					case rng.Intn(4) == 0:
						p[i] = float32(rng.NormFloat64() * 1e-5)
					}
					if lr == 0 || rng.Intn(3) == 0 {
						m[i], v[i], g[i] = 0, 0, 0
					}
				}
				d, w := make([]byte, 2*n), make([]float32, n)
				esc, out := make([]byte, EscapeBytes*n), make([]byte, EscapeBytes*n)
				esc = esc[:EscapeBytes*DeltaEncode(d, p, w, 0, esc)]
				wm, wv := make([]byte, 4*n), make([]byte, 4*n)
				for i := range p {
					storeF32(wm[4*i:], m[i])
					storeF32(wv[4*i:], v[i])
				}
				nout, at := 0, 0
				for _, end := range []int{n / 3, n/3 + 1, n - 1, n} {
					if end <= at {
						continue
					}
					for len(esc) > 0 && int(binary.LittleEndian.Uint32(esc)) < at {
						esc = esc[EscapeBytes:]
					}
					nout += AdamDelta(k, at, d[2*at:2*end], wm[4*at:4*end], wv[4*at:4*end], g[at:end], w[at:end], esc, out[EscapeBytes*nout:])
					at = end
				}
				rec := out[:EscapeBytes*nout]
				for i := range p {
					pn, mn, vn, wn, dl, ok := k.deltaUpdate(p[i], m[i], v[i], float64(g[i]))
					what := func(field string) {
						t.Fatalf("n=%d lr=%g element %d (master %#08x): %s differs from the reference (%#08x, Δ %d, fits %v)", n, lr, i, math.Float32bits(p[i]), field, math.Float32bits(pn), dl, ok)
					}
					if !sameFloat(loadF32(wm[4*i:]), mn) || !sameFloat(loadF32(wv[4*i:]), vn) || !sameFloat(w[i], wn) {
						what("M, V or P16")
					}
					if pn != pn { // a NaN's payload is the level's: compare its decode by class
						var got [1]float32
						DeltaDecode(got[:], d[2*i:], w[i:], i, rec)
						if got[0] == got[0] {
							what("the NaN master")
						}
						if len(rec) > 0 && int(binary.LittleEndian.Uint32(rec)) == i {
							rec = rec[EscapeBytes:]
						}
						continue
					}
					if int16(binary.LittleEndian.Uint16(d[2*i:])) != dl {
						what("Δ")
					}
					if !ok {
						if len(rec) < EscapeBytes || int(binary.LittleEndian.Uint32(rec)) != i || binary.LittleEndian.Uint32(rec[4:]) != math.Float32bits(pn) {
							what("the escape record")
						}
						rec = rec[EscapeBytes:]
					}
				}
				if len(rec) != 0 {
					t.Fatalf("n=%d lr=%g: %d escape records left over", n, lr, len(rec)/EscapeBytes)
				}
			}
		}
	})
}

// TestDelta13FitAndRoundTrip pins the 13-bit Δ on every level. The vector
// body's fit range is the reference's: four lanes whose master lies every
// int16 distance from its P16 are stored by the level's walk body exactly
// when that distance is in [−4096, 4095]. And through the whole walk
// (AdamDelta at learning rate 0, which leaves every master where it is) and
// the stored plane (PackDelta, UnpackDelta, at every start mod 8 and tail),
// each master either round-trips through P16 + Δ13 or escapes with its bits:
// every int16 distance, both ±4096 ties in fp16's normal range, fp16 binade
// edges, fp16- and fp32-subnormal masters, ±Inf and NaNs. The level's
// packer and unpacker are the reference's byte for byte, at every length to
// 80 and a few past the vector bodies' blocks, over random Δs and, for the
// unpacker, random bytes.
func TestDelta13FitAndRoundTrip(t *testing.T) {
	// h is an fp16 subnormal, 96 × 2^-24, whose neighbours lie 2^17 fp32 ulps
	// away: h plus any int16 distance rounds back to h.
	const h = 0x36c00000
	masters := []uint32{
		0x3f801000, 0x3f7ff000, 0x3f803000, 0x3f805000, // ±4096 from 1.0 (even) and 1+2^-10 (odd): ties
		0x3fffefff, 0x3ffff000, 0x3ffff001, 0x40000000, 0x477fe000, 0x477fefff, 0x477ff000, // binade edges, the top, past it
		0x387fe000, 0x387ff000, 0x38800000, 0x38801000, 0x337fffff, 0x33800000, 0x00000001, 0x807fffff, // fp16 and fp32 subnormals
		0x7f800000, 0xff800000, 0x7fc00000, 0xffc00001, 0x7fa00000, 0x00000000, 0x80000000,
	}
	for d := math.MinInt16; d <= math.MaxInt16; d++ {
		masters = append(masters, uint32(h+d))
	}
	onEveryLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for n := 0; n <= 1000; n += 1 + n/80*117 {
			src, got, want := make([]byte, 2*n), make([]byte, DeltaBytes(n)), make([]byte, DeltaBytes(n))
			for i := range n {
				binary.LittleEndian.PutUint16(src[2*i:], uint16(rng.Intn(8192)-4096))
			}
			PackDelta(got, src)
			packDeltaGeneric(want, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d: packed %x, reference %x", n, got, want)
			}
			back, ref := make([]byte, 2*n), make([]byte, 2*n)
			if UnpackDelta(back, got); !bytes.Equal(back, src) {
				t.Fatalf("n=%d: unpacked %x, packed %x", n, back, src)
			}
			rng.Read(got)
			UnpackDelta(back, got)
			unpackDeltaGeneric(ref, got)
			if !bytes.Equal(back, ref) {
				t.Fatalf("n=%d: random bytes unpack to %x, reference %x", n, back, ref)
			}
		}
		k := adamTestCoef(1, 0)
		k.LR = 0
		var dp [8]byte
		var m, v [16]byte
		var g, w [4]float32
		for d := math.MinInt16; d <= math.MaxInt16; d++ {
			for i := range w {
				w[i] = math.Float32frombits(h)
				binary.LittleEndian.PutUint16(dp[2*i:], uint16(int16(d)))
			}
			if got, want := active.adamDelta(k, dp[:], m[:], v[:], g[:], w[:]), map[bool]int{true: 4}[-4096 <= d && d <= 4095]; got != want {
				t.Fatalf("four lanes at Δ %d: the walk body stored %d, want %d", d, got, want)
			}
		}
		for _, lead := range []int{0, 1, 5, 7} {
			n := lead + len(masters)
			p, w, q, grad := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
			for i, x := range masters {
				p[lead+i] = math.Float32frombits(x)
			}
			d, packed, mv := make([]byte, 2*n), make([]byte, DeltaBytes(n)), make([]byte, 4*n)
			esc, out := make([]byte, EscapeBytes*n), make([]byte, EscapeBytes*n)
			esc = esc[:EscapeBytes*DeltaEncode(d, p, w, 0, esc)]
			out = out[:EscapeBytes*AdamDelta(k, 0, d, mv, append([]byte(nil), mv...), grad, w, esc, out)]
			PackDelta(packed, d)
			clear(d)
			UnpackDelta(d, packed)
			DeltaDecode(q, d, w, 0, out)
			rec := out
			for i, x := range p {
				dl := int64(math.Float32bits(x)) - int64(math.Float32bits(w[i]))
				escaped := len(rec) > 0 && int(binary.LittleEndian.Uint32(rec)) == i
				if escaped {
					rec = rec[EscapeBytes:]
				}
				if fits := -4096 <= dl && dl <= 4095; escaped == fits && x == x {
					t.Fatalf("lead %d: master %#08x (Δ %d from P16 %#08x): escaped %v", lead, math.Float32bits(x), dl, math.Float32bits(w[i]), escaped)
				}
				if !sameFloat(q[i], x) || x == x && math.Float32bits(q[i]) != math.Float32bits(x) {
					t.Fatalf("lead %d: master %#08x decodes to %#08x", lead, math.Float32bits(x), math.Float32bits(q[i]))
				}
			}
		}
	})
}
