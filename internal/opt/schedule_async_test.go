package opt

import (
	"strings"
	"testing"

	"ratel/internal/nn"
)

func TestScheduleModeParse(t *testing.T) {
	for _, m := range []ScheduleMode{ScheduleStreaming, ScheduleAsync} {
		got, err := ParseScheduleMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseScheduleMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, gone := range []string{"sync", "readiness", "eventually"} {
		if _, err := ParseScheduleMode(gone); err == nil {
			t.Errorf("mode %q accepted", gone)
		}
	}
}

// TestAsyncApplierMatchesSync: staging a group, sending it through the
// pipeline as a deferred update and waiting for it before the next step is
// bit-identical to the synchronous update — deferral changes when the
// update runs, not what it computes.
func TestAsyncApplierMatchesSync(t *testing.T) {
	modelSync := buildModel(t)
	modelAsync := buildModel(t)

	sync := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "s")
	async := NewOutOfCoreAdam(&lockedStore{m: MemStore{}}, DefaultAdam(), "s")
	initGroups(t, sync, modelSync)
	groups := initGroups(t, async, modelAsync)
	p := NewStatePipeline(async, 2, groups)
	defer p.Close()
	slots := make([]*DeferredUpdate, len(groups))
	for i, g := range groups {
		slots[i] = async.NewDeferred(g)
	}

	for step := 1; step <= 3; step++ {
		setGrads(modelSync, int64(step))
		setGrads(modelAsync, int64(step))
		sync.BeginStep()
		async.BeginStep()
		for _, g := range modelSync.ParamGroups() {
			if err := sync.UpdateGroup(g); err != nil {
				t.Fatal(err)
			}
		}
		for i, g := range groups {
			if err := async.StageDeferred(slots[i], g); err != nil {
				t.Fatal(err)
			}
			p.SubmitDeferred(slots[i])
		}
		for _, d := range slots {
			if err := d.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sameParams(t, modelSync, modelAsync, "deferred")
}

// TestAsyncApplierFault: a store failure inside a deferred apply surfaces
// from the slot's Wait, leaves the working weights untouched, and frees the
// slot for reuse.
func TestAsyncApplierFault(t *testing.T) {
	m := buildModel(t)
	store := &lockedStore{m: MemStore{}}
	o := NewOutOfCoreAdam(store, DefaultAdam(), "x")
	g := m.ParamGroups()[0]
	if err := o.InitGroup(g); err != nil {
		t.Fatal(err)
	}
	p := NewStatePipeline(o, 1, []nn.ParamGroup{g})
	defer p.Close()
	d := o.NewDeferred(g)

	setGrads(m, 1)
	o.BeginStep()
	before := append([]float32(nil), g.Params[0].W.Data...)
	store.drop(o.stateKey(g.Name)) // media failure stand-in
	if err := o.StageDeferred(d, g); err != nil {
		t.Fatal(err)
	}
	p.SubmitDeferred(d)
	err := d.Wait()
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("Wait after store fault = %v, want missing-object error", err)
	}
	if d.Pending() {
		t.Fatal("slot still pending after failed Wait")
	}
	for i, v := range g.Params[0].W.Data {
		if v != before[i] {
			t.Fatal("failed apply modified working weights")
		}
	}
	if now, _ := p.Buffered(); now != 0 {
		t.Fatalf("%d wire buffers still held after the failed apply", now)
	}
}

func TestStageDeferredErrors(t *testing.T) {
	m := buildModel(t)
	o := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "x")
	g := m.ParamGroups()[0]
	if err := o.InitGroup(g); err != nil {
		t.Fatal(err)
	}
	d := o.NewDeferred(g)
	if err := o.StageDeferred(d, g); err == nil {
		t.Error("StageDeferred before BeginStep accepted")
	}
	o.BeginStep()
	if err := o.StageDeferred(d, g); err != nil {
		t.Fatal(err)
	}
	if err := o.StageDeferred(d, g); err == nil {
		t.Error("double StageDeferred on a pending slot accepted")
	}
}
