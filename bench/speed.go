package main

import (
	"syscall"
	"time"
)

// The machine's speed is not a constant on a shared host: whatever else runs
// on the same physical core slows a CPU-bound step by up to 40 % for minutes
// at a time (README.md, "Why one core and a reference speed"). So every timed
// interval is bracketed by two runs of a fixed reference kernel, and the part
// of the interval this process spent on a CPU is scaled to what it would have
// taken had the kernel run in refNominal. Time spent off the CPU (asleep on a
// throttle, waiting for a disk) is left as measured.

// refNominal is the reference kernel's time on the quiet machine the
// benchmark was defined on. It only fixes the unit: parent and change are
// scaled by the same constant.
const refNominal = 26 * time.Millisecond

// The reference kernel is two halves of about equal time. The first keeps
// the floating-point units busy and touches no memory; the second is a
// row-by-row matrix product whose every multiply-add loads twice and stores
// once. A busy neighbour costs the second several times what it costs the
// first, and the engine's steps, which are mostly register-blocked GEMMs,
// fall in between: across the fast and slow states of the defining machine
// the sum of the two tracked them better than either half.
const (
	refChainIters = 4_000_000
	refMatN       = 64
	refMatReps    = 100
)

var (
	refA, refB, refC [refMatN * refMatN]float32
	refSink          float64 // keeps the kernel's results live
)

func init() {
	for i := range refA {
		refA[i] = float32(i%7) * 0.01
		refB[i] = float32(i%5) * 0.01
	}
}

// refKernel runs the reference work and returns how long it took.
func refKernel() time.Duration {
	t0 := time.Now()
	x0, x1, x2, x3, x4, x5 := 1.00, 1.01, 1.02, 1.03, 1.04, 1.05
	x6, x7, x8, x9, x10, x11 := 1.06, 1.07, 1.08, 1.09, 1.10, 1.11
	const mul, add = 0.9999999, 0.0000001
	for i := 0; i < refChainIters; i++ {
		x0 = x0*mul + add
		x1 = x1*mul + add
		x2 = x2*mul + add
		x3 = x3*mul + add
		x4 = x4*mul + add
		x5 = x5*mul + add
		x6 = x6*mul + add
		x7 = x7*mul + add
		x8 = x8*mul + add
		x9 = x9*mul + add
		x10 = x10*mul + add
		x11 = x11*mul + add
	}
	refSink += x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + x10 + x11

	const n = refMatN
	for r := 0; r < refMatReps; r++ {
		for i := 0; i < n; i++ {
			c := refC[i*n : i*n+n]
			for k := 0; k < n; k++ {
				a := refA[i*n+k]
				b := refB[k*n : k*n+n]
				for j := range c {
					c[j] += a * b[j]
				}
			}
		}
	}
	refSink += float64(refC[n+1])
	return time.Since(t0)
}

// mark is one reading of the machine's speed with the clocks on either side
// of it, so that the kernel's own time is in no interval.
type mark struct {
	ref        time.Duration
	start, end time.Time
	cpu0, cpu1 time.Duration // this process's CPU time at start and end
}

func takeMark() mark {
	m := mark{start: time.Now(), cpu0: cpuTime()}
	m.ref = refKernel()
	m.cpu1, m.end = cpuTime(), time.Now()
	return m
}

// cpuTime is the user and system time of every thread of this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // then nothing is scaled: wall times are reported as measured
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// speedScale is the factor that turns a wall time measured between marks a
// and b into time at the reference speed. The machine's speed over the
// interval is taken from the two marks; only the CPU-busy share of the
// interval is scaled by it.
func speedScale(a, b mark) float64 {
	wall := b.start.Sub(a.end).Seconds()
	if wall <= 0 {
		return 1
	}
	cpu := min((b.cpu0 - a.cpu1).Seconds(), wall) // a blocked syscall's thread can overlap another's
	speed := refNominal.Seconds() / ((a.ref + b.ref).Seconds() / 2)
	return (wall - cpu + cpu*speed) / wall
}
