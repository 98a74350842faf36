// Package errd is errdrop's golden testdata. It imports the real nvme and
// trace packages so callee package paths resolve as they do in the engine.
package errd

import (
	"fmt"
	"io"

	"ratel/internal/nvme"
	"ratel/internal/opt"
	"ratel/internal/sim"
	"ratel/internal/trace"
)

func statementDrop(a *nvme.Array, data []byte) {
	a.Put("weights", data) // want `call drops the error returned by nvme.Put`
}

func ticketDrop(a *nvme.Array, data []byte) {
	a.Start("weights", data, true).Wait() // want `call drops the error returned by nvme.Wait`
}

func storeTicketDrop(s opt.Store, data []byte) {
	t := s.Start("weights", data, true)
	_ = t.Wait() // want `error returned by opt.Wait assigned to blank identifier`
}

func deferDrop(a *nvme.Array) {
	defer a.Close() // want `deferred call drops the error returned by nvme.Close`
}

func blankSingle(res sim.Result, w io.Writer) {
	_ = trace.WriteJSON(res, w) // want `error returned by trace.WriteJSON assigned to blank identifier`
}

func blankMulti(cfg nvme.Config) *nvme.Array {
	a, _ := nvme.Open(cfg) // want `error returned by nvme.Open assigned to blank identifier`
	return a
}

func checkedIsFine(a *nvme.Array, data []byte) error {
	if err := a.Put("weights", data); err != nil {
		return err
	}
	return a.Close()
}

func ticketCheckedIsFine(s opt.Store, data []byte) error {
	t := s.Start("weights", data, true)
	if t.Done() {
		return t.Wait()
	}
	return t.Wait()
}

func deferClosureIsFine(a *nvme.Array) (err error) {
	defer func() {
		if cerr := a.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return nil
}

func capturedMultiIsFine(cfg nvme.Config) (*nvme.Array, error) {
	return nvme.Open(cfg)
}

func noErrorResultIsFine(res sim.Result) string {
	return trace.Gantt(res, 80)
}

func unwatchedPackageIsFine(w io.Writer) {
	fmt.Fprintln(w, "status") // fmt is not a watched write path
}
