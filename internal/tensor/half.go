package tensor

import (
	"encoding/binary"
	"fmt"
	"math"

	"ratel/internal/tensor/simd"
)

// Half-precision support: the engine stores every offloaded tensor (P16,
// G16, A16) as IEEE-754 binary16 bytes, so offloaded footprints match the
// paper's 2 bytes/element accounting and mixed-precision rounding is
// exercised for real. The kernels dispatch through
// internal/tensor/simd (F16C on amd64, bit-identical to the portable
// reference on every path); the scalar conversions below are thin
// wrappers over the same reference.

// Float32ToHalf converts with round-to-nearest-even, producing the binary16
// bit pattern.
func Float32ToHalf(f float32) uint16 { return simd.Float32ToHalf(f) }

// HalfToFloat32 decodes a binary16 bit pattern.
func HalfToFloat32(h uint16) float32 { return simd.HalfToFloat32(h) }

// RoundFP16 rounds a float32 through half precision, the P16 = fp16(P32)
// conversion of mixed-precision training.
func RoundFP16(f float32) float32 { return HalfToFloat32(Float32ToHalf(f)) }

// RoundFP16InPlace rounds every element of t through half precision.
func (t *Tensor) RoundFP16InPlace() { simd.F16Round(t.Data) }

// RoundFP16Into writes dst[i] = RoundFP16(src[i]); the slices must have
// equal length (they may alias only if identical). The kernel the
// optimizer's P16 install and G16 staging paths use — bit-identical to
// the scalar loop.
func RoundFP16Into(dst, src []float32) error {
	if len(dst) != len(src) {
		return fmt.Errorf("tensor: fp16 round %d values into %d", len(src), len(dst))
	}
	simd.F16RoundInto(dst, src)
	return nil
}

// ToFP16Bytes encodes values as packed little-endian binary16.
func ToFP16Bytes(values []float32) []byte {
	out := make([]byte, 2*len(values))
	// The length is exact, so the Into variant's only error is impossible.
	_ = ToFP16BytesInto(out, values)
	return out
}

// The byte codecs below (fp16 and fp32, both directions) run inline on the
// caller. They stream memory at a few bytes per cycle, so at the sizes the
// engine moves — one tensor of an activation blob, one tensor of a group's
// optimizer state — sharding them across the pool was measured slower than
// the serial loop on two cores and cost an escaping closure per tensor
// (EXPERIMENTS.md, "Byte codecs run inline").

// ToFP16BytesInto encodes values as packed little-endian binary16 into dst,
// which the caller owns and which must hold exactly 2*len(values) bytes.
func ToFP16BytesInto(dst []byte, values []float32) error {
	if len(dst) != 2*len(values) {
		return fmt.Errorf("tensor: fp16 encode %d values into %d bytes", len(values), len(dst))
	}
	simd.F16Encode(dst, values)
	return nil
}

// FromFP16Bytes decodes packed binary16 into dst, which must hold
// len(b)/2 values.
func FromFP16Bytes(b []byte, dst []float32) error {
	if len(b)%2 != 0 || len(dst) != len(b)/2 {
		return fmt.Errorf("tensor: fp16 decode %d bytes into %d values", len(b), len(dst))
	}
	simd.F16Decode(dst, b)
	return nil
}

// ToFP32Bytes encodes values as packed little-endian float32 (the P32/OS32
// representation in the NVMe store).
func ToFP32Bytes(values []float32) []byte {
	out := make([]byte, 4*len(values))
	_ = ToFP32BytesInto(out, values)
	return out
}

// ToFP32BytesInto encodes values as packed little-endian float32 into dst,
// which the caller owns and which must hold exactly 4*len(values) bytes —
// the allocation-free spill path of the out-of-core optimizer.
func ToFP32BytesInto(dst []byte, values []float32) error {
	if len(dst) != 4*len(values) {
		return fmt.Errorf("tensor: fp32 encode %d values into %d bytes", len(values), len(dst))
	}
	// Advancing the slice instead of indexing it (dst[4*i:]) lets the
	// compiler drop the per-element bounds check: ~30% faster.
	for _, v := range values {
		binary.LittleEndian.PutUint32(dst, math.Float32bits(v))
		dst = dst[4:]
	}
	return nil
}

// FromFP32Bytes decodes packed float32 into dst.
func FromFP32Bytes(b []byte, dst []float32) error {
	if len(b)%4 != 0 || len(dst) != len(b)/4 {
		return fmt.Errorf("tensor: fp32 decode %d bytes into %d values", len(b), len(dst))
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
	return nil
}
