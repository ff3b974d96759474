package ipu

import (
	"errors"
	"testing"

	"hunipu/internal/faultinject"
)

func TestCheckFaultNoInjector(t *testing.T) {
	d, err := NewDevice(MK2())
	if err != nil {
		t.Fatal(err)
	}
	if fe := d.CheckFault("s1_row_min", faultinject.KindSuperstep); fe != nil {
		t.Fatalf("fault without injector: %v", fe)
	}
}

func TestCheckFaultUsesSuperstepClock(t *testing.T) {
	d, err := NewDevice(MK2())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faultinject.ParseSchedule("exchange at=2")
	if err != nil {
		t.Fatal(err)
	}
	d.SetInjector(sched)
	for step := 0; step < 5; step++ {
		fe := d.CheckFault("phase", faultinject.KindSuperstep)
		if (fe != nil) != (step == 2) {
			t.Fatalf("superstep %d: fault = %v", step, fe)
		}
		d.Superstep(0, Exchange{}, 0)
	}
	if d.Injector() != sched {
		t.Fatal("Injector() did not return the installed schedule")
	}
}

func TestAllocInjection(t *testing.T) {
	d, err := NewDevice(MK2())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faultinject.ParseSchedule("memory times=1")
	if err != nil {
		t.Fatal(err)
	}
	d.SetInjector(sched)
	err = d.Alloc(0, 128)
	var fe *faultinject.FaultError
	if !errors.As(err, &fe) || fe.Class != faultinject.TileMemoryPressure {
		t.Fatalf("Alloc error = %v, want TileMemoryPressure fault", err)
	}
	if got := d.Allocated(0); got != 0 {
		t.Fatalf("failed alloc still reserved %d bytes", got)
	}
	// The one-shot rule is consumed; the retry succeeds.
	if err := d.Alloc(0, 128); err != nil {
		t.Fatalf("second Alloc: %v", err)
	}
}
