// Package slotd is slotlife's golden testdata. The pipe type mirrors the
// engine's activation-window protocol surface (recognition is by method
// name — the real types are unexported).
package slotd

type job struct {
	slot int
	read bool
	key  string
}

type pipe struct{}

func (p *pipe) acquireSlot(slot int, label string) error { return nil }
func (p *pipe) releaseSlot(slot int)                     {}
func (p *pipe) submit(j job)                             {}

func bad() bool { return false }

// The engine's write-behind idiom: release on every error path, submit on
// success. Exactly one release on every path — clean.
func protocolIsFine(p *pipe, encode func() error, reserve func() error) error {
	slot := 3
	p.acquireSlot(slot, "stall")
	if err := encode(); err != nil {
		p.releaseSlot(slot)
		return err
	}
	if err := reserve(); err != nil {
		p.releaseSlot(slot)
		return err
	}
	p.submit(job{slot: slot, key: "k"})
	return nil
}

// The error return skips the release: the token leaks on that path and the
// next acquireSlot of this slot deadlocks.
func leakOnErrorPath(p *pipe, encode func() error) error {
	slot := 3
	p.acquireSlot(slot, "stall") // want `slot token "slot" is not released on every path`
	if err := encode(); err != nil {
		return err
	}
	p.submit(job{slot: slot, key: "k"})
	return nil
}

func neverReleased(p *pipe) {
	slot := 1
	p.acquireSlot(slot, "stall") // want `slot token "slot" is never released`
}

func doubleRelease(p *pipe) {
	slot := 1
	p.acquireSlot(slot, "stall")
	p.releaseSlot(slot)
	p.releaseSlot(slot) // want `slot token "slot" released twice`
}

// submit hands the token to the writer; releasing it again afterwards puts
// a second token into the slot's channel.
func releaseAfterSubmit(p *pipe) {
	slot := 1
	p.acquireSlot(slot, "stall")
	p.submit(job{slot: slot, key: "k"})
	p.releaseSlot(slot) // want `slot token "slot" released twice`
}

// Released on one branch, then released again at the merge: a double
// release on the branch-taken path only — invisible to a line scan.
func maybeDoubleRelease(p *pipe, ok bool) {
	slot := 1
	p.acquireSlot(slot, "stall")
	if ok {
		p.releaseSlot(slot)
	}
	p.releaseSlot(slot) // want `slot token "slot" may already be released on a preceding path`
}

func reacquireWhileHeld(p *pipe) {
	slot := 1
	p.acquireSlot(slot, "a")
	p.acquireSlot(slot, "b") // want `slot token "slot" re-acquired while still held`
	p.releaseSlot(slot)
}

// An explicit panic between acquire and submit leaks the token on the
// panic path — recover would leave the ring slot unusable.
func panicPathLeaks(p *pipe) {
	slot := 1
	p.acquireSlot(slot, "stall") // want `slot token "slot" leaks on a panic path`
	if bad() {
		panic("encode invariant broken")
	}
	p.submit(job{slot: slot, key: "k"})
}

// The deferred release runs on both the normal and the panic exit: clean.
func deferReleaseIsFine(p *pipe, work func()) {
	slot := 1
	p.acquireSlot(slot, "stall")
	defer p.releaseSlot(slot)
	if bad() {
		panic("invariant broken")
	}
	work()
}

// Handing the release duty to a closure escapes the token from this
// frame's accounting; the closure is analyzed as its own frame.
func closureReleasesIsFine(p *pipe) func() {
	slot := 1
	p.acquireSlot(slot, "stall")
	return func() { p.releaseSlot(slot) }
}

// Reassigning the slot variable while its token is held orphans the token:
// nothing can release it anymore.
func reassignWhileHeld(p *pipe) {
	slot := 1
	p.acquireSlot(slot, "stall")
	slot = 2 // want `slot variable "slot" reassigned while its token is still held`
	p.releaseSlot(slot)
}

// The read direction, as backward runs it: a launch takes the slot's token
// and hands it to a worker with submit; the consume takes it back — the
// join — and returns it with releaseSlot once the blob is decoded, whether
// the fetch or the decode failed or not. Both sit in the per-block loop.
func readDirectionIsFine(p *pipe, blocks int, decode func() error) error {
	for i := blocks - 1; i >= 0; i-- {
		next := (i + 2) % 3
		if err := p.acquireSlot(next, "fetch-stall"); err != nil {
			p.releaseSlot(next)
			return err
		}
		p.submit(job{slot: next, read: true, key: "k"})

		slot := i % 3
		err := p.acquireSlot(slot, "fetch-stall")
		if err == nil {
			err = decode()
		}
		p.releaseSlot(slot)
		if err != nil {
			return err
		}
	}
	return nil
}

// The consume path's decode failure returns with the token still held: the
// failure path's barrier takes every token and deadlocks on this one.
func consumeLeaksOnDecodeError(p *pipe, blocks int, decode func() error) error {
	for i := blocks - 1; i >= 0; i-- {
		slot := i % 3
		if err := p.acquireSlot(slot, "fetch-stall"); err != nil { // want `slot token "slot" is not released on every path`
			p.releaseSlot(slot)
			return err
		}
		if err := decode(); err != nil {
			return err
		}
		p.releaseSlot(slot)
	}
	return nil
}
