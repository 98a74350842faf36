// Package gjd is gojoin's golden testdata: every go statement needs a join
// edge reachable from all non-panic exits.
package gjd

import "sync"

func work() {}

// Fan-out with a Wait on the only exit: clean.
func wgJoined(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// The construction-error idiom gone wrong: the error return leaves before
// Wait, so the goroutine outlives the call on exactly that path.
func wgSkippedOnErrorPath(fail func() error) error {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want `goroutine is not joined on every path: a return path skips wg.Wait`
		defer wg.Done()
		work()
	}()
	if err := fail(); err != nil {
		return err
	}
	wg.Wait()
	return nil
}

// A deferred Wait rides the exit chain and covers the error return: clean.
func wgDeferredWaitIsFine(fail func() error) error {
	var wg sync.WaitGroup
	wg.Add(1)
	defer wg.Wait()
	go func() {
		defer wg.Done()
		work()
	}()
	if err := fail(); err != nil {
		return err
	}
	return nil
}

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

// The input channel is closed by Close and the done channel received
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

// Completion channel closed by the goroutine and received by the spawner:
// a classic one-shot join.
func doneReceivedIsFine() {
	done := make(chan struct{})
	go func() {
		work()
		close(done)
	}()
	<-done
}

// The spawner drops its only handle on the completion signal.
func orphanDone() {
	done := make(chan struct{})
	go func() { // want `goroutine signals completion on "done" but nothing receives it`
		work()
		close(done)
	}()
}

// Handing the WaitGroup to another function transfers the join duty.
func spawnAndHandOff(join func(*sync.WaitGroup)) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	join(&wg)
}

// A declared worker ranging over a parameter: the spawn-site argument is
// what must be closed, and it is.
func drain(ch chan int) {
	for v := range ch {
		_ = v
	}
}

func startDrain() {
	ch := make(chan int)
	go drain(ch)
	ch <- 1
	close(ch)
}

func leakDrain() chan int {
	ch := make(chan int)
	go drain(ch) // want `worker goroutine ranges over "ch" but nothing in the package closes it`
	return ch
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

// A select-style worker consumes via receive-with-ok inside its loop:
// closing the input joins it, with no range-style close obligation.
func recvLoopWorker() {
	ch := make(chan int)
	go func() {
		for {
			_, ok := <-ch
			if !ok {
				return
			}
		}
	}()
	ch <- 1
	close(ch)
}
