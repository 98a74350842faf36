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

// PlaneStats reads the group's pieces as stored and reports, for each plane
// — the masters, M, V — its stored bytes, its escape table's included; its
// escapes, which for a moment plane stored raw are what the narrow code the
// next update tries it in would list; and the planes stored raw. params is
// the params the pieces cover.
func (o *OutOfCoreAdam) PlaneStats(group string) (bytes, esc, raw [3]int, params int, err error) {
	for _, pc := range o.cuts[group] {
		obj := make([]byte, pc.stored())
		if err = o.store.Start(pc.key, obj, false).Wait(); err != nil {
			return
		}
		if _, err = tables(obj, pc); err != nil {
			return
		}
		n, l := pc.n, layout(pc.n, pc.form, pc.esc)
		ends := [4]int{0, l.m, l.v, l.end}
		for p := range 3 {
			bytes[p] += ends[p+1] - ends[p]
			if pc.form&(FullP<<p) == 0 {
				bytes[p] += tableHeader[p] + simd.EscapeBytes*pc.esc[p]
				esc[p] += pc.esc[p]
				continue
			}
			raw[p]++
			if p > 0 {
				esc[p] += simd.NarrowEncode(make([]byte, 3*n), make([]byte, (n+1)/2), obj[ends[p]:ends[p+1]], pc.codes[p-1], 0, make([]byte, simd.EscapeBytes*n))
			}
		}
		params += n
	}
	return
}
