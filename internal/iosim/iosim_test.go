package iosim

import (
	"sync"
	"testing"
	"time"
)

func TestCostModelDuration(t *testing.T) {
	c := CostModel{PerOp: time.Millisecond, BytesPerSec: 1000}
	if got := c.Duration(0); got != time.Millisecond {
		t.Fatalf("Duration(0) = %v, want 1ms", got)
	}
	// 500 bytes at 1000 B/s = 500ms transfer.
	if got := c.Duration(500); got != time.Millisecond+500*time.Millisecond {
		t.Fatalf("Duration(500) = %v", got)
	}
}

func TestZeroModelChargesNothing(t *testing.T) {
	var c CostModel
	if !c.Zero() {
		t.Fatal("zero value must be Zero()")
	}
	if got := c.Duration(1 << 30); got != 0 {
		t.Fatalf("zero model Duration = %v", got)
	}
}

func TestMeterCounters(t *testing.T) {
	m := NewMeter(CostModel{}, true)
	m.Charge(100)
	m.Charge(50)
	s := m.Stats()
	if s.Ops != 2 || s.Bytes != 150 {
		t.Fatalf("stats = %+v", s)
	}
	m.Reset()
	if s := m.Stats(); s.Ops != 0 || s.Bytes != 0 || s.Busy != 0 {
		t.Fatalf("after reset stats = %+v", s)
	}
}

func TestMeterBusyAccumulates(t *testing.T) {
	m := NewMeter(CostModel{PerOp: time.Millisecond}, true)
	m.SetClock(NopClock{})
	for i := 0; i < 5; i++ {
		m.Charge(0)
	}
	if got := m.Stats().Busy; got != 5*time.Millisecond {
		t.Fatalf("busy = %v, want 5ms", got)
	}
}

func TestExclusiveMeterSerializes(t *testing.T) {
	// With an exclusive meter and a real clock, two concurrent charges
	// of 5ms each must take >= ~10ms in total.
	m := NewMeter(CostModel{PerOp: 5 * time.Millisecond}, true)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Charge(0)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 9*time.Millisecond {
		t.Fatalf("exclusive charges overlapped: elapsed %v", elapsed)
	}
}

func TestSharedMeterOverlaps(t *testing.T) {
	m := NewMeter(CostModel{PerOp: 10 * time.Millisecond}, false)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Charge(0)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 35*time.Millisecond {
		t.Fatalf("shared charges appear serialized: elapsed %v", elapsed)
	}
}

func TestDefaultModels(t *testing.T) {
	if DefaultNetwork().Zero() {
		t.Fatal("the default model must charge")
	}
	if DefaultNetwork().BytesPerSec <= 0 {
		t.Fatal("network model needs positive bandwidth")
	}
}
