// Package simd holds the data-parallel microkernels under the tensor
// package's hot inner loops: the fp32 matmul kernels — the register tiles
// the three matmuls run on (PackPanel + GemmTiles: 8x32 tiles of a·b or
// aᵀ·b against a packed panel of b; DotRow: a row of a·bᵀ in tiles of three
// or six dot products) and the BLAS-1 pair they are defined by and fall back
// to on ragged edges (Axpy row update, Dot product) — the fp16 pack/unpack
// codec, the element-wise add/scale chunks, and the optimizer's Adam update.
// Each kernel exists at least twice:
//
//   - A portable pure-Go reference (the *Generic functions), which is the
//     semantic contract: what the kernel computes, bit for bit.
//   - An amd64 AVX2/FMA/F16C assembly implementation ("avx2-fma-f16c").
//   - For the two bodies that are bound by FMA throughput, the GEMM tile and
//     the dot tile of long rows, an AVX-512F implementation ("avx512": the
//     AVX2 set with those two replaced).
//
// The highest level the CPU and OS support is installed at init. The levels
// are tiers of one design, not alternatives to choose between: one tile
// geometry (GemmMR x GemmNR), one pack layout, one driver above them, and —
// the property that makes the choice invisible — every vector level computes
// the same bits, element for element (DESIGN.md §11), so which one runs
// decides speed only.
//
// Dispatch is through one table of function values resolved once at init
// (PackPanel and GemmTiles, whose caller keeps a stack buffer out of the heap,
// branch on the selected set's tier instead), so the per-call cost is one
// indirect call.
// Selection is feature-gated (vectorTier: CPUID AVX2 + FMA + F16C and OS YMM
// state via XGETBV; for AVX-512, AVX512F and OS opmask + ZMM state as well) and
// can be vetoed with the RATEL_NOSIMD=1 environment variable, which pins every
// kernel to the portable reference — the escape hatch for debugging and for
// covering the fallback path in CI. There is nothing to select a vector level
// with: tests and benchmarks that want a lower one pin it with ForceLevel.
//
// Exactness contract (DESIGN.md §11): the fp16 codec kernels (F16Encode,
// F16Decode, F16Round, F16RoundInto), the element-wise kernels (Add, Scale)
// and the Adam kernels (Adam, AdamWire: float64 lanes, no fusion on either
// path) are bit-identical to their Generic references — the vector bodies
// perform the same per-element operation with no reassociation, and the
// assembly canonicalizes NaN results to match the software reference. The
// matmul kernels (Axpy, Dot) use FMA and, for Dot, multiple accumulators, so
// they differ from the reference in rounding; they are tolerance-tested.
// The tiles add no third answer: on any level GemmTiles is bit-identical
// to Axpy applied per row and p, and DotRow to Dot applied per cell — same
// instruction, operands and order for every element, only the loads and
// stores between the steps differ — and Axpy and Dot are the same bodies on
// both vector levels. All kernels are deterministic: the same inputs produce
// the same bits on every call, at any thread count, because lane assignment
// is a pure function of element index.
//
// Callers outside this package must go through the dispatch entry points;
// calling a *Generic reference directly silently bypasses the selected
// kernel (the simddispatch ratelvet analyzer flags this).
package simd

import "os"

// kernels is the dispatch table: one resolved implementation per entry
// point, plus the tier of the set. Selection, ForceLevel and its
// restore all copy the table as one value, so a kernel added here cannot be
// left pinned (or unpinned) by a hand-kept list. PackPanel and GemmTiles follow
// the table through its tier.
type kernels struct {
	tier      tier
	axpy      func(c, b []float32, a float32)
	dot       func(a, b []float32) float32
	dotRow    func(c, a, b []float32, ldb int)
	f16Encode func(dst []byte, src []float32)
	f16Decode func(dst []float32, src []byte)
	f16Round  func(dst, src []float32)
	add       func(a, b []float32)
	scale     func(d []float32, s float32)
	adam      func(k AdamCoef, p, m, v, grad []float32)
	adamWire  func(k AdamCoef, p, m, v []byte, grad, out []float32)
}

// tier orders the kernel sets: each is the one below it with some bodies
// replaced, and a machine that can run one can run those below it.
type tier int8

const (
	tierGeneric tier = iota
	tierAVX2         // AVX2 + FMA + F16C
	tierAVX512       // tierAVX2 with AVX-512F bodies for the GEMM tile and the dot tile of long rows
)

// String is the tier's level name, what Level and Levels report.
func (t tier) String() string {
	return [...]string{"generic", "avx2-fma-f16c", "avx512"}[t]
}

// generic is the portable reference set.
var generic = kernels{
	tier:      tierGeneric,
	axpy:      AxpyGeneric,
	dot:       DotGeneric,
	dotRow:    DotRowGeneric,
	f16Encode: F16EncodeGeneric,
	f16Decode: F16DecodeGeneric,
	f16Round:  F16RoundIntoGeneric,
	add:       AddGeneric,
	scale:     ScaleGeneric,
	adam:      AdamGeneric,
	adamWire:  AdamWireGeneric,
}

// sets holds the kernel sets this machine can run, lowest tier first:
// generic, then whatever archKernels found.
var sets = []kernels{generic}

// active is the selected set. It is written at init and by ForceLevel in
// tests, which must not race with running kernels.
var active = generic

func init() {
	sets = append(sets, archKernels()...)
	if !noSIMDEnv(os.Getenv("RATEL_NOSIMD")) {
		active = sets[len(sets)-1]
	}
}

// noSIMDEnv interprets the RATEL_NOSIMD variable: any value other than
// empty or "0" disables the vector kernels.
func noSIMDEnv(v string) bool { return v != "" && v != "0" }

// Available reports whether this machine supports the vector kernels
// (CPU features and OS state), independent of the RATEL_NOSIMD veto.
func Available() bool { return len(sets) > 1 }

// Active reports whether the vector kernels are currently selected.
func Active() bool { return active.tier != tierGeneric }

// Level names the selected kernel set: "generic", "avx2-fma-f16c" or
// "avx512". The highest one the machine supports is selected at init — a fact
// about the platform, like the build's GOARCH, with nothing to set: every
// vector level computes the same bits (DESIGN.md §11), so which one runs
// decides speed only.
func Level() string { return active.tier.String() }

// Levels lists the kernel sets this machine can run, "generic" first and the
// one init selects (RATEL_NOSIMD aside) last.
func Levels() []string {
	names := make([]string, len(sets))
	for i := range sets {
		names[i] = sets[i].tier.String()
	}
	return names
}

// ForceLevel pins every kernel to the named set, one of Levels, and returns a
// function restoring the previous selection. Test and benchmark hook only: it
// must not be called while kernels are running on other goroutines, and it
// panics on a level this machine does not have.
func ForceLevel(level string) (restore func()) {
	for i := range sets {
		if sets[i].tier.String() == level {
			prev := active
			active = sets[i]
			return func() { active = prev }
		}
	}
	panic("simd: no kernel set " + level + " on this machine")
}

// ForceGeneric is ForceLevel for the portable reference.
func ForceGeneric() (restore func()) { return ForceLevel(tierGeneric.String()) }

// Axpy computes c[j] += a*b[j] for j in [0, len(c)); b must have at least
// len(c) elements. One rounding per element step on the vector path (FMA),
// two on the generic path — tolerance-tested, deterministic either way.
func Axpy(c, b []float32, a float32) { active.axpy(c, b, a) }

// Dot returns the inner product of a and b; b must have at least len(a)
// elements. The vector path accumulates in multiple lanes and reduces at
// the end, so it is tolerance-tested against the sequential reference.
func Dot(a, b []float32) float32 { return active.dot(a, b) }

// GemmMR x GemmNR is the tile of GemmTiles (dispatch_*.go), the same on
// every level: the AVX-512 body holds it in registers whole, the AVX2 body
// covers it as four 4x16 register tiles, the reference has no shape. A
// product's last panel may be the narrower GemmNRHalf.
const (
	GemmMR     = 8
	GemmNR     = 32
	GemmNRHalf = GemmNR / 2
)

// DotRowTile is the most cells of a DotRow that share each load of a on a
// vector path (six on the AVX-512 body, three on the AVX2 one); a row of that
// many cells, or a multiple, has no ragged end on either.
const DotRowTile = 6

// DotRow computes c[j] = Dot(a, b[j*ldb:j*ldb+len(a)]) for every j in
// [0, len(c)): one row of a·bᵀ. Bit-identical to that loop of Dot calls; the
// vector paths share each load of a between several rows of b.
func DotRow(c, a, b []float32, ldb int) { active.dotRow(c, a, b, ldb) }

// F16Encode packs src as little-endian IEEE-754 binary16 into dst, which
// must hold exactly 2*len(src) bytes. Bit-identical to F16EncodeGeneric:
// round-to-nearest-even, NaNs canonicalized to sign|0x7e00.
func F16Encode(dst []byte, src []float32) { active.f16Encode(dst, src) }

// F16Decode unpacks little-endian binary16 from src into dst, which must
// hold exactly len(src)/2 values (len(src) even). Bit-identical to
// F16DecodeGeneric, NaN payloads preserved.
func F16Decode(dst []float32, src []byte) { active.f16Decode(dst, src) }

// F16RoundInto writes src rounded through binary16 (round-to-nearest-even) to
// dst, which must have at least len(src) elements; the two may be the same
// slice, not otherwise overlap. Bit-identical to F16RoundIntoGeneric.
func F16RoundInto(dst, src []float32) { active.f16Round(dst, src) }

// F16Round is F16RoundInto in place.
func F16Round(d []float32) { active.f16Round(d, d) }

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
