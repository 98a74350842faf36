// Package join is the one place the library starts a goroutine: a Group
// spawns with Go and joins with Wait, so every goroutine has an owner that
// waits for it. Group is Go 1.25's sync.WaitGroup with its Go method; on
// that toolchain it becomes a sync.WaitGroup.
package join

import "sync"

// Group is a set of goroutines joined together. The zero value is empty.
type Group struct{ wg sync.WaitGroup }

// Go runs f on a new goroutine in the group.
func (g *Group) Go(f func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		f()
	}()
}

// Wait blocks until every goroutine started by Go has returned.
func (g *Group) Wait() { g.wg.Wait() }
