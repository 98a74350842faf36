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
// ("M and V in 4-bit codes"): it trains each of the benchmark's workload
// shapes as plain models — ForwardBackward on random tokens, each group
// updated by UpdateGroup over a MemStore, pieces cut at the engine's window —
// and at each horizon reads every stored piece and logs, for M and V, the
// escapes per param, the fullest table's fill and the planes stored wide.
// Without -planes.full it is a smoke of two steps of each shape on seed 1.
// The measurement:
//
//	go test ./internal/opt -run '^$' -bench StatePlanes -benchtime 1x -timeout 2h -v -args -planes.full
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
		var esc, wide [2]int
		var fill [2]float64
		params := 0
		for _, g := range groups {
			e, f, w, n, err := o.PlaneStats(g.Name)
			if err != nil {
				b.Fatal(err)
			}
			for p := range 2 {
				esc[p], fill[p], wide[p] = esc[p]+e[p], max(fill[p], f[p]), wide[p]+w[p]
			}
			params += n
		}
		b.Logf("%-16s seed %d %5d steps | M %6.3f %% escapes, fullest table %5.1f %%, %2d wide | V %6.3f %% escapes, fullest table %5.1f %%, %2d wide | %d params, %d wide planes",
			sh.name, seed, step, 100*float64(esc[0])/float64(params), 100*fill[0], wide[0],
			100*float64(esc[1])/float64(params), 100*fill[1], wide[1], params, o.WidePlanes())
	}
}
