package opt

// SetStreamSweep splits every StatePipeline built from now on as the
// stream-size sweep asks (see sweep): a stream of the given buffers, 0 for
// the rule's, and the resident set from the last-registered pieces when last
// is set. The func it returns puts the rule back.
func SetStreamSweep(stream int, last bool) (restore func()) {
	sweep.stream, sweep.last = stream, last
	return func() { sweep.stream, sweep.last = 0, false }
}
