// Package simd is simdet's golden testdata: positive findings carry want
// comments; the rest must stay silent.
package simd

import (
	"container/heap"
	"math/rand"
	"sort"
	"time"

	"ratel/internal/join"
)

type resource string

type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func wallClock() time.Duration {
	start := time.Now()          // want `time.Now in simulator code`
	time.Sleep(time.Millisecond) // want `time.Sleep in simulator code`
	return time.Since(start)     // want `time.Since in simulator code`
}

func durationMathIsFine(d time.Duration) float64 {
	return d.Seconds() // methods and duration arithmetic are allowed
}

func globalRand() int {
	return rand.Intn(10) // want `global rand.Intn in simulator code`
}

func seededRandIsFine(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

func spawn(done chan struct{}) {
	go func() { close(done) }() // want `goroutine spawn in simulator code`
}

func spawnThroughJoin(g *join.Group, done chan struct{}) {
	g.Go(func() { close(done) }) // want `goroutine spawn in simulator code`
	g.Wait()
}

func mapOrderAppend(m map[string]int) []int {
	var out []int
	for _, v := range m { // want `append to 'out' without a subsequent sort`
		out = append(out, v)
	}
	return out
}

func collectThenSortIsFine(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mapOrderAssign(m map[string]int) string {
	var last string
	for k := range m {
		if k > last {
			last = k // want `assignment to outer variable 'last'`
		}
	}
	return last
}

func mapOrderFloatSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `floating-point accumulation into 'total'`
	}
	return total
}

func intCountIsFine(m map[string]int) int {
	var n int
	for range m {
		n++ // integer inc is commutative: allowed
	}
	return n
}

func mapOrderHeapPush(m map[resource]int, h *intHeap) {
	for _, v := range m {
		heap.Push(h, v) // want `heap.Push`
	}
}

func mapIndexWritesAreFine(m map[string]float64, total float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v / total
	}
	return out
}

func sliceRangeIsFine(xs []float64) float64 {
	var total float64
	for _, v := range xs {
		total += v
	}
	return total
}
