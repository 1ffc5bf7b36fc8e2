package vtime

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(5 * time.Microsecond)
	c.Advance(7 * time.Microsecond)
	if got, want := c.Now(), Duration(12*time.Microsecond); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestClockAdvanceNegativeIgnored(t *testing.T) {
	var c Clock
	c.Advance(10 * time.Nanosecond)
	c.Advance(-5 * time.Nanosecond)
	if got, want := c.Now(), Stamp(10); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestClockObserveForwardOnly(t *testing.T) {
	var c Clock
	c.Observe(100)
	if got := c.Now(); got != 100 {
		t.Fatalf("after Observe(100), Now() = %v", got)
	}
	c.Observe(50) // must not move backwards
	if got := c.Now(); got != 100 {
		t.Fatalf("Observe(50) moved clock backwards to %v", got)
	}
}

// freeAt reports when the resource's last reserved interval ends.
func freeAt(r *Resource) Stamp {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.busy) == 0 {
		return 0
	}
	return r.busy[len(r.busy)-1].end
}

func TestObserveAndAdvance(t *testing.T) {
	var c Clock
	c.Observe(10)
	got := c.ObserveAndAdvance(40, 5*time.Nanosecond)
	if got != 45 {
		t.Fatalf("ObserveAndAdvance = %v, want 45", got)
	}
	got = c.ObserveAndAdvance(20, 5*time.Nanosecond) // stale stamp
	if got != 50 {
		t.Fatalf("ObserveAndAdvance with stale stamp = %v, want 50", got)
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	var c Clock
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), Stamp(workers*per); got != want {
		t.Fatalf("concurrent Advance lost updates: %v, want %v", got, want)
	}
}

func TestClockConcurrentObserveIsMax(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for i := 1; i <= 100; i++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			c.Observe(Stamp(v))
		}(int64(i))
	}
	wg.Wait()
	if got := c.Now(); got != 100 {
		t.Fatalf("concurrent Observe: Now() = %v, want 100", got)
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource()
	s1, e1 := r.Occupy(0, 10*time.Nanosecond)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first Occupy = [%v,%v], want [0,10]", s1, e1)
	}
	// Request arriving earlier in virtual time must queue behind.
	s2, e2 := r.Occupy(5, 10*time.Nanosecond)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second Occupy = [%v,%v], want [10,20]", s2, e2)
	}
	// Request arriving after the resource is free starts immediately.
	s3, e3 := r.Occupy(100, 1*time.Nanosecond)
	if s3 != 100 || e3 != 101 {
		t.Fatalf("third Occupy = [%v,%v], want [100,101]", s3, e3)
	}
}

func TestResourceNegativeDuration(t *testing.T) {
	r := NewResource()
	s, e := r.Occupy(7, -3)
	if s != 7 || e != 7 {
		t.Fatalf("Occupy with negative duration = [%v,%v], want [7,7]", s, e)
	}
}

// Property: total occupancy equals the sum of durations when all requests
// are ready at the epoch (no idle gaps).
func TestResourceConservationProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		r := NewResource()
		var sum Stamp
		for _, d := range durs {
			r.Occupy(0, time.Duration(d))
			sum += Stamp(d)
		}
		return freeAt(r) == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Observe is idempotent and order-insensitive (result is the max).
func TestObserveMaxProperty(t *testing.T) {
	f := func(vals []int64) bool {
		var c Clock
		var max Stamp
		for _, v := range vals {
			if v < 0 {
				v = -v
			}
			s := Stamp(v)
			c.Observe(s)
			if s > max {
				max = s
			}
		}
		return c.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStampHelpers(t *testing.T) {
	if Max(Stamp(3), Stamp(9)) != 9 || Max(Stamp(9), Stamp(3)) != 9 {
		t.Fatal("Max broken")
	}
	if Stamp(1000).AsDuration() != time.Microsecond {
		t.Fatal("AsDuration broken")
	}
	if Duration(time.Millisecond) != 1e6 {
		t.Fatal("Duration broken")
	}
	if got := Stamp(1500).Add(500 * time.Nanosecond); got != 2000 {
		t.Fatalf("Add = %v", got)
	}
}

func TestResourceBackfill(t *testing.T) {
	r := NewResource()
	r.Occupy(0, 10*time.Nanosecond)   // [0,10)
	r.Occupy(100, 10*time.Nanosecond) // [100,110)
	// A later real-time request that is ready at 20 must use the idle gap.
	s, e := r.Occupy(20, 5*time.Nanosecond)
	if s != 20 || e != 25 {
		t.Fatalf("backfill Occupy = [%v,%v], want [20,25]", s, e)
	}
	// A request that does not fit before 100 lands after 110.
	s, e = r.Occupy(30, 80*time.Nanosecond)
	if s != 110 || e != 190 {
		t.Fatalf("non-fitting Occupy = [%v,%v], want [110,190]", s, e)
	}
	if freeAt(r) != 190 {
		t.Fatalf("FreeAt = %v", freeAt(r))
	}
}

func TestResourceBackfillExactFit(t *testing.T) {
	r := NewResource()
	r.Occupy(0, 10*time.Nanosecond)
	r.Occupy(20, 10*time.Nanosecond)
	s, e := r.Occupy(10, 10*time.Nanosecond) // exactly fills [10,20)
	if s != 10 || e != 20 {
		t.Fatalf("exact-fit Occupy = [%v,%v]", s, e)
	}
	// Everything merged into [0,30): a zero-ready request queues at 30.
	s, _ = r.Occupy(0, time.Nanosecond)
	if s != 30 {
		t.Fatalf("post-merge Occupy start = %v, want 30", s)
	}
}

func TestResourceBoundedMemory(t *testing.T) {
	r := NewResource()
	for i := 0; i < 10*maxIntervals; i++ {
		r.Occupy(Stamp(i*100), time.Nanosecond)
	}
	r.mu.Lock()
	n := len(r.busy)
	r.mu.Unlock()
	if n > maxIntervals {
		t.Fatalf("busy list grew to %d (> %d)", n, maxIntervals)
	}
}

// Property: granted intervals never overlap and each starts at or after its
// ready time.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(reqs []struct {
		Ready uint16
		Dur   uint8
	}) bool {
		r := NewResource()
		type iv struct{ s, e Stamp }
		var granted []iv
		for _, q := range reqs {
			s, e := r.Occupy(Stamp(q.Ready), time.Duration(q.Dur))
			if s < Stamp(q.Ready) {
				return false
			}
			for _, g := range granted {
				if q.Dur > 0 && s < g.e && g.s < e {
					return false // overlap
				}
			}
			granted = append(granted, iv{s, e})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// occupyLinear is the reference Occupy: it scans the busy list for the
// first fitting gap from the front, where Occupy starts from a binary
// search.
func occupyLinear(r *Resource, ready Stamp, d time.Duration) (start, end Stamp) {
	need := Stamp(d.Nanoseconds())
	insert := len(r.busy)
	start = ready
	for i, iv := range r.busy {
		if start+need <= iv.start {
			insert = i
			break
		}
		if iv.end > start {
			start = iv.end
		}
	}
	end = start + need
	r.busy = append(r.busy, interval{})
	copy(r.busy[insert+1:], r.busy[insert:])
	r.busy[insert] = interval{start: start, end: end}
	r.coalesce(insert)
	return start, end
}

// Property: on random (ready, d) sequences — zero durations, ready stamps
// on interval edges and enough requests to hit the length bound included —
// Occupy grants what the linear reference grants and leaves the same busy
// list.
func TestResourceOccupyMatchesLinearReference(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewResource(), NewResource()
		for i := 0; i < int(n)%1500; i++ {
			ready := Stamp(rng.Intn(20000))  // wide enough for 256 disjoint intervals
			d := time.Duration(rng.Intn(12)) // 0 often: zero-length grants sit on edges
			if rng.Intn(8) == 0 && len(want.busy) > 0 {
				iv := want.busy[rng.Intn(len(want.busy))]
				ready = []Stamp{iv.start, iv.end}[rng.Intn(2)]
			}
			gs, ge := got.Occupy(ready, d)
			ws, we := occupyLinear(want, ready, d)
			if gs != ws || ge != we || !slices.Equal(got.busy, want.busy) {
				t.Logf("request %d (ready %d, d %d): granted [%d,%d), reference [%d,%d)", i, ready, d, gs, ge, ws, we)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A resource that stays at the length bound, as every NIC of a long run does,
// sheds its oldest interval on each call: 10 000 calls past the bound grant
// what the linear reference grants, leave the same list, and allocate nothing.
func TestResourceAtTheBoundMatchesReferenceWithoutAllocating(t *testing.T) {
	const warm, calls = 2 * maxIntervals, 2*maxIntervals + 10000 // the list fills, and grows its array a last time, in the warm-up
	rng := rand.New(rand.NewSource(7))
	readies, durs := make([]Stamp, calls), make([]time.Duration, calls)
	for i := range readies {
		// Mostly fresh, disjoint intervals at the far end, so the list stays
		// full; one request in eight backfills a gap further back.
		readies[i] = Stamp(i*24 + rng.Intn(12))
		if rng.Intn(8) == 0 {
			readies[i] = Max(0, readies[i]-Stamp(rng.Intn(3000)))
		}
		durs[i] = time.Duration(rng.Intn(10))
	}
	got, want := NewResource(), NewResource()
	for i := range readies {
		gs, ge := got.Occupy(readies[i], durs[i])
		ws, we := occupyLinear(want, readies[i], durs[i])
		if gs != ws || ge != we || !slices.Equal(got.busy, want.busy) {
			t.Fatalf("call %d (ready %d, d %d): granted [%d,%d), reference [%d,%d)", i, readies[i], durs[i], gs, ge, ws, we)
		}
	}
	if len(got.busy) != maxIntervals {
		t.Fatalf("busy list holds %d intervals, the schedule was meant to keep it at the bound of %d", len(got.busy), maxIntervals)
	}
	// The same calls again, alone: the reference allocates, Occupy must not.
	// Counted over the whole stretch, not averaged per call, where one
	// reallocation of the list in 256 calls would round to nothing; the
	// quietest of three stretches, since the runtime allocates now and then
	// behind any test's back.
	again := NewResource()
	for i := 0; i < warm; i++ {
		again.Occupy(readies[i], durs[i])
	}
	fewest := ^uint64(0)
	for try := 0; try < 3; try++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := warm; i < calls; i++ {
			again.Occupy(readies[i]+Stamp(try*calls*24), durs[i])
		}
		runtime.ReadMemStats(&m1)
		fewest = min(fewest, m1.Mallocs-m0.Mallocs)
	}
	if fewest != 0 {
		t.Fatalf("%d allocations in %d calls at the bound, want none", fewest, calls-warm)
	}
}

// Concurrent recurring timers — the streaming job generator and the
// receivers' block cutters are exactly this shape: several goroutines
// each occupying the same resource on a fixed virtual-time period, with
// demand exceeding capacity so ticks queue. Every grant must start at or
// after its ready time, keep its full duration, and never overlap
// another grant.
func TestResourceConcurrentRecurringTimers(t *testing.T) {
	r := NewResource()
	const timers, ticks = 4, 64
	const period = 100 * time.Nanosecond
	const dur = 30 * time.Nanosecond // 4 timers x 30ns per 100ns: oversubscribed
	type iv struct{ s, e Stamp }
	grants := make([][]iv, timers)
	var wg sync.WaitGroup
	for i := 0; i < timers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < ticks; k++ {
				ready := Stamp(k) * Stamp(Duration(period))
				s, e := r.Occupy(ready, dur)
				if s < ready {
					t.Errorf("timer %d tick %d: start %v before ready %v", id, k, s, ready)
				}
				if e-s != Stamp(Duration(dur)) {
					t.Errorf("timer %d tick %d: grant [%v,%v) not %v wide", id, k, s, e, dur)
				}
				grants[id] = append(grants[id], iv{s, e})
			}
		}(i)
	}
	wg.Wait()

	var all []iv
	for _, g := range grants {
		all = append(all, g...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
	var busy Stamp
	for i := 1; i < len(all); i++ {
		if all[i].s < all[i-1].e {
			t.Fatalf("grants overlap: [%v,%v) and [%v,%v)", all[i-1].s, all[i-1].e, all[i].s, all[i].e)
		}
	}
	for _, g := range all {
		busy += g.e - g.s
	}
	if want := Stamp(timers * ticks * int(Duration(dur))); busy != want {
		t.Fatalf("total occupancy %v, want %v", busy, want)
	}
}

// Regression: back-to-back recurring intervals must serialize through the
// resource — consecutive grants may touch (end == next start) but can
// never be issued at identical stamps, which would collapse two batch
// submissions into one instant.
func TestResourceBackToBackDistinctStamps(t *testing.T) {
	r := NewResource()
	const period = 50 * time.Nanosecond
	const dur = 80 * time.Nanosecond // longer than the period: always behind
	prevStart, prevEnd := Stamp(-1), Stamp(-1)
	for k := 0; k < 200; k++ {
		ready := Stamp(k) * Stamp(Duration(period))
		s, e := r.Occupy(ready, dur)
		if s == prevStart || e == prevEnd {
			t.Fatalf("tick %d: grant [%v,%v) repeats a stamp of [%v,%v)", k, s, e, prevStart, prevEnd)
		}
		if s < prevEnd {
			t.Fatalf("tick %d: start %v inside previous grant ending %v", k, s, prevEnd)
		}
		if e <= s {
			t.Fatalf("tick %d: empty grant [%v,%v)", k, s, e)
		}
		prevStart, prevEnd = s, e
	}
}
