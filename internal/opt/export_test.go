package opt

import "ratel/internal/tensor/simd"

// SetStreamSweep splits every StatePipeline built from now on as the
// stream-size sweep asks (see sweep): a stream of the given buffers, 0 for
// the rule's, and the resident set from the last-registered pieces when last
// is set. The func it returns puts the rule back.
func SetStreamSweep(stream int, last bool) (restore func()) {
	sweep.stream, sweep.last = stream, last
	return func() { sweep.stream, sweep.last = 0, false }
}

// PlaneStats reads the group's pieces as stored and reports, for M and V, the
// escapes of their planes — a narrow plane's table, or what the narrow code
// the next update tries a wide plane in would list — the fullest narrow
// table's share of its capacity, and the planes stored wide where narrow
// would pay, and the params they cover.
func (o *OutOfCoreAdam) PlaneStats(group string) (esc [2]int, fill [2]float64, wide [2]int, params int, err error) {
	for _, pc := range o.cuts[group] {
		obj := make([]byte, pc.stored())
		if err = o.store.Start(pc.key, obj, false).Wait(); err != nil {
			return
		}
		in, err := tables(obj, pc)
		if err != nil {
			return esc, fill, wide, params, err
		}
		l := layout(pc.n, pc.form)
		for p, plane := range [2][]byte{obj[l.m:l.v], obj[l.v:l.end]} {
			if pc.form&(WideM<<p) == 0 {
				e := len(in.esc[1+p]) / simd.EscapeBytes
				esc[p], fill[p] = esc[p]+e, max(fill[p], float64(e)/float64(escCap(pc.n)))
				continue
			}
			n := pc.n
			e := simd.NarrowEncode(make([]byte, 3*n), make([]byte, (n+1)/2), plane, pc.codes[p], 0, make([]byte, simd.EscapeBytes*n))
			esc[p] += e
			if narrowPays(n) {
				wide[p]++
			}
		}
		params += pc.n
	}
	return esc, fill, wide, params, nil
}
