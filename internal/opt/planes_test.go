package opt_test

import (
	"flag"
	"math/rand"
	"testing"

	"ratel/internal/engine"
	"ratel/internal/nn"
	"ratel/internal/opt"
)

// planesFull runs BenchmarkStatePlanes's measurement instead of its smoke.
var planesFull = flag.Bool("planes.full", false, "run the plane-statistics measurement: 4 shapes × seeds 1-2 × 20/200/600/2,000 steps")

// BenchmarkStatePlanes is the plane-statistics measurement of EXPERIMENTS.md
// ("The state piece carries no slack"): it trains each of the benchmark's
// workload shapes as plain models — ForwardBackward on random tokens, each
// group updated by UpdateGroup over a MemStore, pieces cut at the engine's
// window — and at each horizon reads every stored piece and logs, for the
// masters, M and V, the stored bytes per param (each plane's escape table
// included), the escapes per param and the planes stored raw; the state's
// bytes per param in all; and the Adam walk's wall-clock per param over the
// steps so far (KernelStats: the walk with its codecs, on the test's
// threads). Without -planes.full it is a smoke of two steps of each shape on
// seed 1. The measurement:
func BenchmarkStatePlanes(b *testing.B) {
	horizons, seeds := []int{20, 200, 600, 2000}, []int64{1, 2}
	if !*planesFull {
		horizons, seeds = []int{2}, seeds[:1]
	}
	for _, sh := range sweepShapes() {
		b.Run(sh.name, func(b *testing.B) {
			for range b.N {
				for _, seed := range seeds {
					planeStats(b, sh, seed, horizons)
				}
			}
		})
	}
}

// planeStats trains the shape on seed to each horizon in turn and logs its
// planes there.
func planeStats(b *testing.B, sh sweepShape, seed int64, horizons []int) {
	cfg := sh.cfg.Model
	cfg.Seed = seed
	m, err := nn.NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	groups := m.ParamGroups()
	o := opt.NewOutOfCoreAdam(opt.MemStore{}, opt.DefaultAdam(), "states")
	o.SetWindow(engine.DefaultPipelineDepth, groups)
	for _, g := range groups {
		if err := o.InitGroup(g); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	tokens := func() [][]int {
		rows := make([][]int, cfg.Batch)
		for r := range rows {
			rows[r] = make([]int, cfg.Seq)
			for s := range rows[r] {
				rows[r][s] = rng.Intn(cfg.Vocab)
			}
		}
		return rows
	}
	for step, last := 1, horizons[len(horizons)-1]; step <= last; step++ {
		m.ZeroGrads()
		for range sh.micro {
			if _, err := m.ForwardBackward(tokens(), tokens(), nil); err != nil {
				b.Fatal(err)
			}
		}
		if sh.micro > 1 {
			for _, p := range m.Params() {
				p.G.Scale(1 / float32(sh.micro))
			}
		}
		o.BeginStep()
		for _, g := range groups {
			if err := o.UpdateGroup(g); err != nil {
				b.Fatal(err)
			}
		}
		if step != horizons[0] {
			continue
		}
		horizons = horizons[1:]
		var bytes, esc, raw [3]int
		params := 0
		for _, g := range groups {
			by, e, r, n, err := o.PlaneStats(g.Name)
			if err != nil {
				b.Fatal(err)
			}
			for p := range 3 {
				bytes[p], esc[p], raw[p] = bytes[p]+by[p], esc[p]+e[p], raw[p]+r[p]
			}
			params += n
		}
		perParam := func(x int) float64 { return float64(x) / float64(params) }
		walked, busy := o.KernelStats()
		b.Logf("%-16s seed %d %5d steps | Δ %.3f B/param, %.3f %% escapes, %d raw | M %.3f, %.3f %%, %d | V %.3f, %.3f %%, %d | %.3f B/param, %d params | walk %.2f ns/param",
			sh.name, seed, step, perParam(bytes[0]), 100*perParam(esc[0]), raw[0], perParam(bytes[1]), 100*perParam(esc[1]), raw[1],
			perParam(bytes[2]), 100*perParam(esc[2]), raw[2], perParam(bytes[0]+bytes[1]+bytes[2]), params, float64(busy.Nanoseconds())/float64(walked))
	}
}
