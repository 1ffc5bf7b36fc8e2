package streaming

import (
	"math"
	"testing"
	"time"

	"mpi4spark/internal/vtime"
)

const batchI = 100 * time.Millisecond

func sec(d time.Duration) vtime.Stamp { return vtime.Stamp(d.Nanoseconds()) }

func TestPIDFirstUpdateSeedsFromProcessingRate(t *testing.T) {
	est := newPIDEstimator(batchI, 10)
	// 1000 events in 500ms: processing rate 2000/s, no delay.
	rate, ok := est.update(sec(500*time.Millisecond), 1000, sec(500*time.Millisecond), 0)
	if !ok {
		t.Fatal("first valid update rejected")
	}
	if math.Abs(rate-2000) > 1e-9 {
		t.Fatalf("seed rate = %v, want 2000 (processing rate)", rate)
	}
}

func TestPIDFirstUpdateDrainsSchedulingDelay(t *testing.T) {
	est := newPIDEstimator(batchI, 10)
	// Same processing rate, but 200ms of accumulated delay: the integral
	// term (2 intervals' worth of backlog at 2000/s) pulls the seed down
	// by ki * 2 * 2000 = 800.
	rate, ok := est.update(sec(500*time.Millisecond), 1000, sec(500*time.Millisecond), sec(200*time.Millisecond))
	if !ok {
		t.Fatal("update rejected")
	}
	if math.Abs(rate-1200) > 1e-9 {
		t.Fatalf("seeded rate = %v, want 2000 - 0.2*(0.2*2000/0.1) = 1200", rate)
	}
}

func TestPIDStaysWhenStable(t *testing.T) {
	est := newPIDEstimator(batchI, 10)
	est.update(sec(100*time.Millisecond), 1000, sec(100*time.Millisecond), 0)
	// Processing exactly keeps up (procRate == latestRate, no delay): the
	// error terms are all zero, the rate must not move.
	rate, ok := est.update(sec(200*time.Millisecond), 1000, sec(100*time.Millisecond), 0)
	if !ok {
		t.Fatal("update rejected")
	}
	if math.Abs(rate-10000) > 1e-9 {
		t.Fatalf("stable rate = %v, want 10000", rate)
	}
}

func TestPIDBacksOffUnderOverload(t *testing.T) {
	est := newPIDEstimator(batchI, 10)
	first, _ := est.update(sec(100*time.Millisecond), 10_000, sec(100*time.Millisecond), 0)
	// Now each batch takes twice the interval and queues delay: the
	// proposed rate must fall strictly below the processing rate.
	rate, ok := est.update(sec(300*time.Millisecond), 10_000, sec(200*time.Millisecond), sec(100*time.Millisecond))
	if !ok {
		t.Fatal("update rejected")
	}
	procRate := 10_000 / 0.2
	if rate >= procRate {
		t.Fatalf("overloaded rate %v not below processing rate %v", rate, procRate)
	}
	if rate >= first {
		t.Fatalf("overloaded rate %v did not drop from %v", rate, first)
	}
}

func TestPIDFloorsAtMinRate(t *testing.T) {
	est := newPIDEstimator(batchI, 500)
	est.update(sec(100*time.Millisecond), 10, sec(100*time.Millisecond), 0)
	rate, ok := est.update(sec(300*time.Millisecond), 10, sec(200*time.Millisecond), sec(10*time.Second))
	if !ok {
		t.Fatal("update rejected")
	}
	if rate != 500 {
		t.Fatalf("rate = %v, want the 500 floor", rate)
	}
}

func TestPIDRejectsUnusableMeasurements(t *testing.T) {
	est := newPIDEstimator(batchI, 10)
	if _, ok := est.update(sec(100*time.Millisecond), 0, sec(50*time.Millisecond), 0); ok {
		t.Fatal("accepted empty batch")
	}
	if _, ok := est.update(sec(100*time.Millisecond), 100, 0, 0); ok {
		t.Fatal("accepted zero processing time")
	}
	est.update(sec(200*time.Millisecond), 100, sec(50*time.Millisecond), 0)
	if _, ok := est.update(sec(150*time.Millisecond), 100, sec(50*time.Millisecond), 0); ok {
		t.Fatal("accepted out-of-order completion")
	}
}
