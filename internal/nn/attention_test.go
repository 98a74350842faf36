package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ratel/internal/tensor"
	"ratel/internal/tensor/simd"
)

// refAttend and refAttendBackward are attention's per-head bodies as they
// were before the view products: gather q, k, v (and the context gradient)
// into contiguous copies, compute the full seq x seq square with the plain
// matmuls, overwrite its upper half with -Inf, softmax whole rows, scatter
// the results back. Kept as the reference the causal body must equal bit for
// bit; they share nothing with it but the public kernels.

func refGather(dst *tensor.Tensor, src *tensor.Tensor, row0, col0, stride int) {
	rows, cols := dst.Shape[0], dst.Shape[1]
	for s := 0; s < rows; s++ {
		copy(dst.Data[s*cols:(s+1)*cols], src.Data[(row0+s)*stride+col0:(row0+s)*stride+col0+cols])
	}
}

func refScatter(dst *tensor.Tensor, src *tensor.Tensor, row0, col0, stride int) {
	rows, cols := src.Shape[0], src.Shape[1]
	for s := 0; s < rows; s++ {
		copy(dst.Data[(row0+s)*stride+col0:(row0+s)*stride+col0+cols], src.Data[s*cols:(s+1)*cols])
	}
}

func refAttend(t *testing.T, qkv *tensor.Tensor, batch, seq, d, heads int) (probs [][]*tensor.Tensor, ctx *tensor.Tensor) {
	t.Helper()
	dh := d / heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	ctx = tensor.New(batch*seq, d)
	probs = make([][]*tensor.Tensor, batch)
	for bi := 0; bi < batch; bi++ {
		probs[bi] = make([]*tensor.Tensor, heads)
		for h := 0; h < heads; h++ {
			q, k, v, out := tensor.New(seq, dh), tensor.New(seq, dh), tensor.New(seq, dh), tensor.New(seq, dh)
			refGather(q, qkv, bi*seq, h*dh, 3*d)
			refGather(k, qkv, bi*seq, d+h*dh, 3*d)
			refGather(v, qkv, bi*seq, 2*d+h*dh, 3*d)
			scores := tensor.New(seq, seq)
			must(t, tensor.MatMulTInto(scores, q, k))
			scores.Scale(scale)
			for i := 0; i < seq; i++ {
				for j := i + 1; j < seq; j++ {
					scores.Data[i*seq+j] = float32(math.Inf(-1))
				}
			}
			must(t, tensor.SoftmaxRows(scores))
			roundGrid(scores)
			probs[bi][h] = scores
			must(t, tensor.MatMulInto(out, scores, v))
			refScatter(ctx, out, bi*seq, h*dh, d)
		}
	}
	roundGrid(ctx)
	return probs, ctx
}

func refAttendBackward(t *testing.T, qkv *tensor.Tensor, probs [][]*tensor.Tensor, dctx *tensor.Tensor, batch, seq, d, heads int) *tensor.Tensor {
	t.Helper()
	dh := d / heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	dqkv := tensor.New(batch*seq, 3*d)
	for bi := 0; bi < batch; bi++ {
		for h := 0; h < heads; h++ {
			q, k, v, dout := tensor.New(seq, dh), tensor.New(seq, dh), tensor.New(seq, dh), tensor.New(seq, dh)
			refGather(q, qkv, bi*seq, h*dh, 3*d)
			refGather(k, qkv, bi*seq, d+h*dh, 3*d)
			refGather(v, qkv, bi*seq, 2*d+h*dh, 3*d)
			refGather(dout, dctx, bi*seq, h*dh, d)
			p := probs[bi][h]
			dv, dq, dk := tensor.New(seq, dh), tensor.New(seq, dh), tensor.New(seq, dh)
			dprobs, dscores := tensor.New(seq, seq), tensor.New(seq, seq)
			must(t, tensor.TMatMulInto(dv, p, dout))
			must(t, tensor.MatMulTInto(dprobs, dout, v))
			for i := 0; i < seq; i++ {
				var dot float64
				for j := 0; j <= i; j++ {
					dot += float64(dprobs.Data[i*seq+j]) * float64(p.Data[i*seq+j])
				}
				for j := 0; j <= i; j++ {
					dscores.Data[i*seq+j] = (dprobs.Data[i*seq+j] - float32(dot)) * p.Data[i*seq+j] * scale
				}
			}
			must(t, tensor.MatMulInto(dq, dscores, k))
			must(t, tensor.TMatMulInto(dk, dscores, q))
			refScatter(dqkv, dq, bi*seq, h*dh, 3*d)
			refScatter(dqkv, dk, bi*seq, d+h*dh, 3*d)
			refScatter(dqkv, dv, bi*seq, 2*d+h*dh, 3*d)
		}
	}
	return dqkv
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func requireBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d values, reference %d", what, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#08x), reference %v (%#08x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// attentionCase builds a layer and a qkv activation on the fp16 grid with
// signed zeros and subnormals sprinkled in, and a context gradient.
func attentionCase(rng *rand.Rand, batch, seq, dh, heads int) (a *Attention, qkv, dctx *tensor.Tensor) {
	d := dh * heads
	a, err := NewAttention("attn", d, heads, rng)
	if err != nil {
		panic(err)
	}
	qkv, dctx = tensor.New(batch*seq, 3*d), tensor.New(batch*seq, d)
	qkv.RandInit(rng, 1)
	for i := range qkv.Data {
		switch rng.Intn(12) {
		case 0:
			qkv.Data[i] = float32(math.Copysign(0, float64(rng.Intn(2))-0.5))
		case 1:
			qkv.Data[i] *= 1e-5 // an fp16 subnormal once rounded
		}
	}
	qkv.RoundFP16InPlace()
	dctx.RandInit(rng, 0.1)
	return a, qkv, dctx
}

// TestAttentionBitIdenticalToFullSquare: the causal body on views — half the
// square, nothing gathered but one operand, nothing scattered — produces the
// probabilities (upper triangle exactly +0), the context and the qkv gradient
// of the gather / full square / mask / scatter body it replaced, bit for bit;
// at tile-aligned and ragged seq and head sizes and past one packed k-block,
// on every kernel level, serial and fanned out over heads, on the heap (pass
// 0) and in an arena refilled with NaN before each pass: what lies above a
// diagonal is +0 because attention wrote it, not because it was allocated so.
func TestAttentionBitIdenticalToFullSquare(t *testing.T) {
	old := tensor.Parallelism()
	defer tensor.SetParallelism(old)
	table := func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		for _, seq := range []int{1, 3, 4, 5, 64, 65, 128, 300} {
			for _, dh := range []int{8, 16, 24, 32} {
				const batch, heads = 2, 2
				a, qkv, dctx := attentionCase(rng, batch, seq, dh, heads)
				wantProbs, wantCtx := refAttend(t, qkv, batch, seq, a.Dim, heads)
				wantDqkv := refAttendBackward(t, qkv, wantProbs, dctx, batch, seq, a.Dim, heads)
				var arena tensor.Arena
				for pass, threads := range []int{1, 3, 1, 3} {
					tensor.SetParallelism(threads)
					where := fmt.Sprintf("seq %d dh %d pass %d", seq, dh, pass)
					var cache AttnCache
					must(t, a.attend(&cache, qkv, batch, seq))
					requireBits(t, where+": Ctx", cache.Ctx, wantCtx)
					for bi := range wantProbs {
						for h := range wantProbs[bi] {
							got := cache.Probs.Window((bi*heads+h)*seq, seq, 0, seq)
							requireBits(t, where+": Probs", &tensor.Tensor{Data: got.Data[:seq*seq]}, wantProbs[bi][h])
						}
					}
					dqkv, err := a.attendBackward(&cache, dctx, batch, seq)
					must(t, err)
					requireBits(t, where+": dqkv", dqkv, wantDqkv)
					// The heap served pass 0 (and pass 1, the arena's first: it
					// is sized by what that pass asked for); from here on every
					// tensor is carved out of NaN.
					a.arena = &arena
					arena.Reset()
					for i := range arena.Free() {
						arena.Free()[i] = float32(math.NaN())
					}
					if pass >= 2 && (arena.Cap() == 0 || arena.Peak() != 0) {
						t.Fatalf("%s: arena holds %d bytes, %d in use after Reset", where, arena.Cap(), arena.Peak())
					}
				}
			}
		}
	}
	for _, level := range simd.Levels() {
		restore := simd.ForceLevel(level)
		t.Run(level, table)
		restore()
	}
}

// TestAttentionNonFiniteReachesLaterRows: skipping by index does not hide a
// non-finite activation from anything causally after it. A NaN in V at
// position p makes the context of every position >= p NaN (the probabilities
// that multiply it are values, some of them zeros, and none is skipped), and
// with it every later layer's rows and the loss; in backward the same NaN
// makes the query gradient of every position >= p NaN, and a NaN in the
// context gradient at p makes position p's query gradient and the key and
// value gradients of every position <= p NaN. Nothing is lost to a zero, so a
// poisoned step still fails as loudly as it did.
func TestAttentionNonFiniteReachesLaterRows(t *testing.T) {
	const batch, seq, dh, heads, p = 1, 21, 16, 2, 9
	const d = dh * heads
	nan := float32(math.NaN())
	rowIsNaN := func(tt *tensor.Tensor, row, col0 int) bool {
		n := 0
		for j := 0; j < dh; j++ {
			if v := tt.Data[row*tt.Shape[1]+col0+j]; v != v {
				n++
			}
		}
		if n != 0 && n != dh {
			t.Fatalf("row %d: %d of %d values NaN", row, n, dh)
		}
		return n == dh
	}
	rng := rand.New(rand.NewSource(62))
	a, qkv, dctx := attentionCase(rng, batch, seq, dh, heads)
	const h = 1 // the poisoned head; head 0 must stay clean throughout
	for j := 0; j < dh; j++ {
		qkv.Data[p*3*d+2*d+h*dh+j] = nan // V of head h at position p
	}
	var cache AttnCache
	must(t, a.attend(&cache, qkv, batch, seq))
	for s := 0; s < seq; s++ {
		if got := rowIsNaN(cache.Ctx, s, h*dh); s >= p && !got {
			t.Errorf("Ctx row %d of the poisoned head is finite: V's NaN at %d was skipped", s, p)
		} else if s < p-p%simd.GemmMR && got {
			t.Errorf("Ctx row %d is NaN: position %d leaked backwards", s, p)
		}
		if rowIsNaN(cache.Ctx, s, 0) {
			t.Errorf("Ctx row %d of the clean head is NaN", s)
		}
	}
	y, err := a.Out.Forward(cache.Ctx)
	must(t, err)
	for s := p; s < seq; s++ {
		if v := y.Data[s*d]; v == v {
			t.Errorf("attention output row %d is finite", s)
		}
	}
	dqkv, err := a.attendBackward(&cache, dctx, batch, seq)
	must(t, err)
	for s := p; s < seq; s++ {
		if !rowIsNaN(dqkv, s, h*dh) {
			t.Errorf("dQ row %d is finite with a NaN in V at %d", s, p)
		}
	}

	// A clean forward, then a NaN in the context gradient at p.
	a, qkv, dctx = attentionCase(rng, batch, seq, dh, heads)
	must(t, a.attend(&cache, qkv, batch, seq))
	for j := 0; j < dh; j++ {
		dctx.Data[p*d+h*dh+j] = nan
	}
	dqkv, err = a.attendBackward(&cache, dctx, batch, seq)
	must(t, err)
	if !rowIsNaN(dqkv, p, h*dh) {
		t.Errorf("dQ row %d is finite with a NaN in dO at %d", p, p)
	}
	for s := 0; s <= p; s++ {
		if !rowIsNaN(dqkv, s, d+h*dh) || !rowIsNaN(dqkv, s, 2*d+h*dh) {
			t.Errorf("dK/dV row %d is finite with a NaN in dO at %d", s, p)
		}
	}
	for s := 0; s < seq; s++ {
		if rowIsNaN(dqkv, s, 0) || rowIsNaN(dqkv, s, d) || rowIsNaN(dqkv, s, 2*d) {
			t.Errorf("dqkv row %d of the clean head is NaN", s)
		}
	}
}
