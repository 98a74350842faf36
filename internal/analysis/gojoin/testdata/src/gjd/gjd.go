// Package gjd is gojoin's golden testdata: every go statement spawns a worker
// whose completion signal is held in a field and joined somewhere in the
// package; a function-local spawn is a finding whatever it does next.
package gjd

import "sync"

func work() {}

// No WaitGroup, no channel: nothing a caller could wait on.
func fireAndForget() {
	go work() // want `goroutine has no join`
}

// A dynamic function value has no body to find a signal in.
func dynamicSpawn(fn func()) {
	go fn() // want `dynamic spawn has no verifiable join edge`
}

type server struct {
	jobs chan int
	done chan struct{}
}

func (s *server) loop() {
	for j := range s.jobs {
		_ = j
	}
	close(s.done)
}

// The input channel is closed by close and the done channel received
// there: the worker terminates and joins at shutdown.
func (s *server) start() {
	go s.loop()
}

func (s *server) close() {
	close(s.jobs)
	<-s.done
}

type leaky struct {
	jobs chan int
}

func (l *leaky) loop() {
	for j := range l.jobs {
		_ = j
	}
}

// Nothing in the package ever closes l.jobs: the worker can never exit.
func (l *leaky) start() {
	go l.loop() // want `worker goroutine ranges over "jobs" but nothing in the package closes it`
}

// The array scheduler's persistent-dispatcher shape: per-device workers
// parked on a condition variable, signalling a field WaitGroup whose only
// Wait lives in close. The Done in the worker body plus the package-level
// Wait form the join edge.
type dispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	wg     sync.WaitGroup
}

func (d *dispatcher) start(n int) {
	for i := 0; i < n; i++ {
		d.wg.Add(1)
		go d.loop()
	}
}

func (d *dispatcher) loop() {
	defer d.wg.Done()
	d.mu.Lock()
	for !d.closed {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
}

// The same shape with the Wait forgotten: the field WaitGroup is signalled
// but no shutdown path ever joins the dispatchers.
type leakyDispatcher struct {
	wg sync.WaitGroup
}

func (d *leakyDispatcher) start(n int) {
	for i := 0; i < n; i++ {
		d.wg.Add(1)
		go d.loop() // want `goroutine signals wg.Done but nothing in the package calls wg.Wait: the spawn has no join edge`
	}
}

func (d *leakyDispatcher) loop() {
	defer d.wg.Done()
	work()
}

// The kernel pool's shape: literal workers spawned by the constructor, a
// select-style receive-with-ok inside the loop. Closing the field joins
// them, with no range-style close obligation; the completion channel is
// received at shutdown.
type selectPool struct {
	in   chan int
	done chan struct{}
}

func newSelectPool() *selectPool {
	p := &selectPool{in: make(chan int), done: make(chan struct{})}
	go func() {
		for {
			if _, ok := <-p.in; !ok {
				p.done <- struct{}{}
				return
			}
		}
	}()
	return p
}

func (p *selectPool) close() {
	close(p.in)
	<-p.done
}

// A completion channel nobody receives.
type orphan struct {
	done chan struct{}
}

func (o *orphan) start() {
	go func() { // want `goroutine signals completion on "done" but nothing receives it`
		work()
		close(o.done)
	}()
}

// Function-local spawns. The Wait on the only exit, the deferred Wait and
// the received done channel were clean while the analyzer walked every path
// out of the function; a signal on a local counts for nothing now, so each
// is a finding, like the one whose error return skips the Wait.
func localWaitGroup(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { // want `a function-local signal does not count`
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

func localWaitSkippedOnErrorPath(fail func() error) error {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want `goroutine has no join`
		defer wg.Done()
		work()
	}()
	if err := fail(); err != nil {
		return err
	}
	wg.Wait()
	return nil
}

func localDone() {
	done := make(chan struct{})
	go func() { // want `goroutine has no join`
		work()
		close(done)
	}()
	<-done
}

// A declared worker ranging over a parameter: the close happens on the
// caller's local, which is no field either.
func drain(ch chan int) {
	for v := range ch {
		_ = v
	}
}

func startDrain() {
	ch := make(chan int)
	go drain(ch) // want `goroutine has no join`
	ch <- 1
	close(ch)
}
