// Package nn implements a small but real decoder-only transformer with
// hand-written backward passes, used by the engine to run the paper's
// algorithms end-to-end at laptop scale.
//
// Mixed-precision discipline: every forward tensor is rounded onto the fp16
// grid when produced (the engine's P16/A16 tensors), so serializing an
// activation to binary16 bytes and restoring it is lossless, and
// recomputing a discarded activation reproduces it bit-for-bit. Gradients
// are computed in fp32 and rounded to fp16 (G16) at the offloading
// boundary. All kernels are deterministic.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"ratel/internal/tensor"
	"ratel/internal/tensor/simd"
)

// Linear is a dense layer y = x·W + b with gradient accumulators.
type Linear struct {
	Name   string
	W      *tensor.Tensor // [in, out]
	B      *tensor.Tensor // [out]
	DW, DB *tensor.Tensor

	// dwScr is Backward's weight-gradient staging buffer, reused across
	// steps. TMatMulInto fully overwrites it, so dirty reuse is
	// bit-transparent; it never escapes the method.
	dwScr *tensor.Tensor
	// arena is where Forward's y and Backward's dx come from (Model.SetArena;
	// nil is the heap). Both are fully overwritten by their Into kernels.
	arena *tensor.Arena
}

// NewLinear initializes a linear layer with scaled-normal weights.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		Name: name,
		W:    tensor.New(in, out),
		B:    tensor.New(out),
		DW:   tensor.New(in, out),
		DB:   tensor.New(out),
	}
	l.W.RandInit(rng, 0.02)
	return l
}

// Forward computes y = x·W + b, rounded to the fp16 grid.
func (l *Linear) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	y, err := tensor.MatMul(l.arena, x, l.W)
	if err != nil {
		return nil, fmt.Errorf("nn: %s: %w", l.Name, err)
	}
	if err := tensor.AddBias(y, l.B); err != nil {
		return nil, fmt.Errorf("nn: %s: %w", l.Name, err)
	}
	roundGrid(y)
	return y, nil
}

// Backward accumulates DW += xᵀ·dy and DB += Σrows(dy), returning
// dx = dy·Wᵀ.
func (l *Linear) Backward(x, dy *tensor.Tensor) (*tensor.Tensor, error) {
	if l.dwScr == nil {
		l.dwScr = tensor.New(l.W.Shape...)
	}
	if err := tensor.TMatMulInto(l.dwScr, x, dy); err != nil {
		return nil, fmt.Errorf("nn: %s backward: %w", l.Name, err)
	}
	if err := tensor.AddInPlace(l.DW, l.dwScr); err != nil {
		return nil, err
	}
	rows, cols, err := dy.Dims2()
	if err != nil {
		return nil, err
	}
	// The bias gradient is a reduction over rows, so it stays off the pool
	// and keeps its order: each DB[j] is one chain of float32 adds in
	// increasing i, a whole row of chains advanced per step.
	for i := 0; i < rows; i++ {
		simd.Add(l.DB.Data, dy.Data[i*cols:(i+1)*cols])
	}
	dx, err := tensor.MatMulT(l.arena, dy, l.W)
	if err != nil {
		return nil, fmt.Errorf("nn: %s backward: %w", l.Name, err)
	}
	return dx, nil
}

// Params lists the layer's parameter tensors paired with their gradients.
func (l *Linear) Params() []Param {
	return []Param{{l.Name + ".w", l.W, l.DW}, {l.Name + ".b", l.B, l.DB}}
}

// Param pairs a parameter tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

// LayerNorm normalizes the last dimension with learnable scale and shift.
type LayerNorm struct {
	Name          string
	Gamma, Beta   *tensor.Tensor
	DGamma, DBeta *tensor.Tensor
	dim           int
	eps           float64
	xhat          []float64     // backward per-row scratch, fully rewritten each row
	arena         *tensor.Arena // of Forward's y and Backward's dx, every element written
}

// NewLayerNorm initializes gamma=1, beta=0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Name:  name,
		Gamma: tensor.New(dim), Beta: tensor.New(dim),
		DGamma: tensor.New(dim), DBeta: tensor.New(dim),
		dim: dim, eps: 1e-5,
	}
	for i := range ln.Gamma.Data {
		ln.Gamma.Data[i] = 1
	}
	return ln
}

// Forward normalizes each row of x [n, dim].
func (ln *LayerNorm) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	n, d, err := x.Dims2()
	if err != nil || d != ln.dim {
		return nil, fmt.Errorf("nn: %s: got %dx%d, want dim %d (%v)", ln.Name, n, d, ln.dim, err)
	}
	y := ln.arena.New(n, d)
	// Rows run inline, one after the other: sharded over two threads they
	// won a coin flip's share of pairs at the widest workload and nothing
	// below it (EXPERIMENTS.md, "Element-wise kernels run inline").
	for i := 0; i < n; i++ {
		row := x.Data[i*d : (i+1)*d]
		mean, inv := ln.rowStats(row)
		out := y.Data[i*d : (i+1)*d]
		for j, v := range row {
			out[j] = float32((float64(v)-mean)*inv)*ln.Gamma.Data[j] + ln.Beta.Data[j]
		}
	}
	roundGrid(y)
	return y, nil
}

// rowStats is one row's mean and reciprocal standard deviation, in float64 in
// increasing index — the same chain in Forward and in Backward, which
// recomputes them.
func (ln *LayerNorm) rowStats(row []float32) (mean, inv float64) {
	for _, v := range row {
		mean += float64(v)
	}
	mean /= float64(len(row))
	var varsum float64
	for _, v := range row {
		diff := float64(v) - mean
		varsum += diff * diff
	}
	return mean, 1 / math.Sqrt(varsum/float64(len(row))+ln.eps)
}

// Backward recomputes the row statistics from x (deterministically) and
// returns dx while accumulating DGamma/DBeta.
func (ln *LayerNorm) Backward(x, dy *tensor.Tensor) (*tensor.Tensor, error) {
	dx := ln.arena.New(x.Shape...)
	if err := ln.backwardInto(dx, x, dy); err != nil {
		return nil, err
	}
	return dx, nil
}

// backwardInto is Backward into the caller's dx, shaped like x: a block's
// input gradient outlives the scope the rest of its backward lives in.
func (ln *LayerNorm) backwardInto(dx, x, dy *tensor.Tensor) error {
	n, d, err := x.Dims2()
	if err != nil || d != ln.dim {
		return fmt.Errorf("nn: %s backward: bad shape", ln.Name)
	}
	if len(ln.xhat) != d {
		ln.xhat = make([]float64, d)
	}
	xhat := ln.xhat
	for i := 0; i < n; i++ {
		row := x.Data[i*d : (i+1)*d]
		dyr := dy.Data[i*d : (i+1)*d]
		mean, inv := ln.rowStats(row)

		var sumDyG, sumDyGX float64
		for j := range row {
			xhat[j] = (float64(row[j]) - mean) * inv
			dg := float64(dyr[j]) * float64(ln.Gamma.Data[j])
			sumDyG += dg
			sumDyGX += dg * xhat[j]
			ln.DGamma.Data[j] += dyr[j] * float32(xhat[j])
			ln.DBeta.Data[j] += dyr[j]
		}
		for j := range row {
			dg := float64(dyr[j]) * float64(ln.Gamma.Data[j])
			dx.Data[i*d+j] = float32(inv * (dg - sumDyG/float64(d) - xhat[j]*sumDyGX/float64(d)))
		}
	}
	return nil
}

// Params lists the layer's parameters.
func (ln *LayerNorm) Params() []Param {
	return []Param{{ln.Name + ".gamma", ln.Gamma, ln.DGamma}, {ln.Name + ".beta", ln.Beta, ln.DBeta}}
}
