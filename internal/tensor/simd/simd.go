// Package simd holds the data-parallel microkernels under the tensor
// package's hot inner loops: the fp32 matmul kernels — the register tiles
// the three matmuls run on (PackPanel + GemmTiles: 4x16 tiles of a·b or
// aᵀ·b against a packed panel of b; DotRow: a row of a·bᵀ in 1x3 tiles of
// dot products) and the BLAS-1 pair they are defined by and fall back to on
// ragged edges (Axpy row update, Dot product) — the fp16 pack/unpack codec,
// the element-wise add/scale chunks, and the optimizer's Adam update. Each
// kernel exists twice:
//
//   - A portable pure-Go reference (the *Generic functions), which is the
//     semantic contract: what the kernel computes, bit for bit.
//   - An amd64 AVX2/FMA/F16C assembly implementation, installed at init
//     when the CPU and OS support it.
//
// Dispatch is through one table of function values resolved once at init
// (PackPanel and GemmTiles, whose caller keeps a stack buffer out of the heap,
// branch on the selected set instead), so the per-call cost is one indirect
// call.
// Selection is feature-gated (CPUID: AVX2 + FMA + F16C, plus OS YMM state
// via XGETBV) and can be vetoed with the RATEL_NOSIMD=1 environment
// variable, which pins every kernel to the portable reference — the escape
// hatch for debugging and for covering the fallback path in CI.
//
// Exactness contract (DESIGN.md §11): the fp16 codec kernels (F16Encode,
// F16Decode, F16Round), the element-wise kernels (Add, Scale) and the Adam
// kernels (Adam, AdamWire: float64 lanes, no fusion on either path) are
// bit-identical to their Generic references — the vector bodies perform
// the same per-element operation with no reassociation, and the assembly
// canonicalizes NaN results to match the software reference. The matmul
// kernels (Axpy, Dot) use FMA and, for Dot, multiple accumulators, so
// they differ from the reference in rounding; they are tolerance-tested.
// The tiles add no third answer: on either path GemmTiles is bit-identical
// to Axpy applied per row and p, and DotRow to Dot applied per cell — same
// instruction, operands and order for every element, only the loads and
// stores between the steps differ. All kernels are deterministic: the same
// inputs produce the same bits on every call, at any thread count, because
// lane assignment is a pure function of element index.
//
// Callers outside this package must go through the dispatch entry points;
// calling a *Generic reference directly silently bypasses the selected
// kernel (the simddispatch ratelvet analyzer flags this).
package simd

import "os"

// kernels is the dispatch table: one resolved implementation per entry
// point, plus the name of the set. Selection, ForceGeneric and its restore
// all copy the table as one value, so a kernel added here cannot be left
// pinned (or unpinned) by a hand-kept list. PackPanel and GemmTiles follow
// the table through its level.
type kernels struct {
	level     string
	axpy      func(c, b []float32, a float32)
	dot       func(a, b []float32) float32
	dotRow    func(c, a, b []float32, ldb int)
	f16Encode func(dst []byte, src []float32)
	f16Decode func(dst []float32, src []byte)
	f16Round  func(d []float32)
	add       func(a, b []float32)
	scale     func(d []float32, s float32)
	adam      func(k AdamCoef, p, m, v, grad []float32)
	adamWire  func(k AdamCoef, p, m, v []byte, grad, out []float32)
}

// generic is the portable reference set.
var generic = kernels{
	level:     "generic",
	axpy:      AxpyGeneric,
	dot:       DotGeneric,
	dotRow:    DotRowGeneric,
	f16Encode: F16EncodeGeneric,
	f16Decode: F16DecodeGeneric,
	f16Round:  F16RoundGeneric,
	add:       AddGeneric,
	scale:     ScaleGeneric,
	adam:      AdamGeneric,
	adamWire:  AdamWireGeneric,
}

// active is the selected set. It is written at init and by ForceGeneric in
// tests, which must not race with running kernels.
var active = generic

// available reports whether the vector kernels could run on this machine
// (regardless of whether RATEL_NOSIMD vetoed them).
var available bool

func init() {
	available = archAvailable()
	if available && !noSIMDEnv(os.Getenv("RATEL_NOSIMD")) {
		active = archKernels()
	}
}

// noSIMDEnv interprets the RATEL_NOSIMD variable: any value other than
// empty or "0" disables the vector kernels.
func noSIMDEnv(v string) bool { return v != "" && v != "0" }

// Available reports whether this machine supports the vector kernels
// (CPU features and OS state), independent of the RATEL_NOSIMD veto.
func Available() bool { return available }

// Active reports whether the vector kernels are currently selected.
func Active() bool { return active.level != generic.level }

// Level names the selected kernel set: "generic" or "avx2-fma-f16c".
func Level() string { return active.level }

// ForceGeneric pins every kernel to the portable reference and returns a
// function restoring the previous selection. Test and benchmark hook only:
// it must not be called while kernels are running on other goroutines.
func ForceGeneric() (restore func()) {
	prev := active
	active = generic
	return func() { active = prev }
}

// Axpy computes c[j] += a*b[j] for j in [0, len(c)); b must have at least
// len(c) elements. One rounding per element step on the vector path (FMA),
// two on the generic path — tolerance-tested, deterministic either way.
func Axpy(c, b []float32, a float32) { active.axpy(c, b, a) }

// Dot returns the inner product of a and b; b must have at least len(a)
// elements. The vector path accumulates in multiple lanes and reduces at
// the end, so it is tolerance-tested against the sequential reference.
func Dot(a, b []float32) float32 { return active.dot(a, b) }

// GemmMR x GemmNR is the register tile of GemmTiles (dispatch_*.go).
const (
	GemmMR = 4
	GemmNR = 16
)

// DotRowTile is how many cells of a DotRow share each load of a on the
// vector path; a row of that many cells, or a multiple, has no ragged end.
const DotRowTile = 3

// DotRow computes c[j] = Dot(a, b[j*ldb:j*ldb+len(a)]) for every j in
// [0, len(c)): one row of a·bᵀ. Bit-identical to that loop of Dot calls; the
// vector path shares each load of a between three rows of b.
func DotRow(c, a, b []float32, ldb int) { active.dotRow(c, a, b, ldb) }

// F16Encode packs src as little-endian IEEE-754 binary16 into dst, which
// must hold exactly 2*len(src) bytes. Bit-identical to F16EncodeGeneric:
// round-to-nearest-even, NaNs canonicalized to sign|0x7e00.
func F16Encode(dst []byte, src []float32) { active.f16Encode(dst, src) }

// F16Decode unpacks little-endian binary16 from src into dst, which must
// hold exactly len(src)/2 values (len(src) even). Bit-identical to
// F16DecodeGeneric, NaN payloads preserved.
func F16Decode(dst []float32, src []byte) { active.f16Decode(dst, src) }

// F16Round rounds every element of d through binary16 in place
// (round-to-nearest-even). Bit-identical to F16RoundGeneric.
func F16Round(d []float32) { active.f16Round(d) }

// Add computes a[i] += b[i]; b must have at least len(a) elements.
// Bit-identical to AddGeneric (no reassociation).
func Add(a, b []float32) { active.add(a, b) }

// Scale computes d[i] *= s. Bit-identical to ScaleGeneric.
func Scale(d []float32, s float32) { active.scale(d, s) }

// Adam applies one Adam update (AdamCoef.update) to every element of the
// decoded state slices p, m and v, in place; the four slices have equal
// length. Bit-identical to AdamGeneric on finite state (a NaN keeps its
// class, not necessarily its payload). The coefficients travel by value: a
// pointer passed through the dispatch table would escape.
func Adam(k AdamCoef, p, m, v, grad []float32) { active.adam(k, p, m, v, grad) }

// AdamWire is Adam over state in wire form: p, m and v are the three planes
// of a state object, 4*len(grad) bytes of little-endian fp32 each, updated in
// place, and the new masters also land in out (len(grad) values) for the
// fp16 install. Bit-identical to AdamWireGeneric, and to Adam on the decoded
// planes.
func AdamWire(k AdamCoef, p, m, v []byte, grad, out []float32) {
	active.adamWire(k, p, m, v, grad, out)
}
