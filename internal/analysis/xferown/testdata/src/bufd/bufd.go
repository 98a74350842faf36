// Package bufd is the migration suite inherited verbatim from the retired
// bufreuse analyzer: every finding its straight-line scan reported must
// still be reported by xferown's dataflow. It imports the real nvme
// package so receiver-type resolution works exactly as it does in the
// engine.
package bufd

import "ratel/internal/nvme"

func readAfterPut() byte {
	buf := nvme.Buffers.Get(4096)
	nvme.Buffers.Put(buf)
	return buf[0] // want `pooled buffer "buf" used after BufPool.Put released it`
}

func writeAfterPut() {
	buf := nvme.Buffers.Get(4096)
	nvme.Buffers.Put(buf)
	buf[0] = 1 // want `pooled buffer "buf" used after BufPool.Put released it`
}

func doublePut() {
	buf := nvme.Buffers.Get(4096)
	nvme.Buffers.Put(buf)
	nvme.Buffers.Put(buf) // want `pooled buffer "buf" used after BufPool.Put released it`
}

func capturedInClosureAfterPut() func() byte {
	buf := nvme.Buffers.Get(4096)
	nvme.Buffers.Put(buf)
	return func() byte { return buf[1] } // want `pooled buffer "buf" used after BufPool.Put released it`
}

func reassignFromGetIsFine() byte {
	buf := nvme.Buffers.Get(4096)
	nvme.Buffers.Put(buf)
	buf = nvme.Buffers.Get(8192)
	b := buf[0]
	nvme.Buffers.Put(buf)
	return b
}

func putThenReturnIsFine() {
	buf := nvme.Buffers.Get(4096)
	buf[0] = 1
	nvme.Buffers.Put(buf)
}

func arrayPutBorrowsOnly(a *nvme.Array) (byte, error) {
	// (*Array).Put borrows for the duration of the call — the caller keeps
	// ownership, so reading afterwards is the sanctioned idiom.
	buf := nvme.Buffers.Get(4096)
	if err := a.Put("k", buf); err != nil {
		return 0, err
	}
	b := buf[0]
	nvme.Buffers.Put(buf)
	return b, nil
}

func errorPathCleanupIsFine(a *nvme.Array, fill func([]byte) error) error {
	// The engine's host-tier idiom: release on the error path, then return.
	// Control never reaches the later uses after that release.
	buf := nvme.Buffers.Get(4096)
	if err := fill(buf); err != nil {
		nvme.Buffers.Put(buf)
		return err
	}
	if err := a.Put("k", buf); err != nil {
		nvme.Buffers.Put(buf)
		return err
	}
	nvme.Buffers.Put(buf)
	return nil
}

func unrelatedBufferIsFine() byte {
	a := nvme.Buffers.Get(512)
	b := nvme.Buffers.Get(512)
	nvme.Buffers.Put(a)
	v := b[0]
	nvme.Buffers.Put(b)
	return v
}
