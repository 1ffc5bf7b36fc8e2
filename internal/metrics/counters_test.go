package metrics

import (
	"fmt"
	"sync"
	"testing"
)

// registryRuns numbers TestCounterRegistry's runs in this process.
var registryRuns int

func TestCounterRegistry(t *testing.T) {
	// A name per run: the registry is process-global, so under -count=N the
	// second run would otherwise find the first run's value.
	registryRuns++
	name := fmt.Sprintf("test.counter.registry.%d", registryRuns)
	if CounterValue(name) != 0 {
		t.Fatal("untouched counter not zero")
	}
	c := GetCounter(name)
	c.Inc()
	c.Add(4)
	if got := CounterValue(name); got != 5 {
		t.Fatalf("value = %d, want 5", got)
	}
	if GetCounter(name) != c {
		t.Fatal("GetCounter returned a different instance for the same name")
	}
	if _, found := Snapshot()[name]; !found {
		t.Fatalf("Snapshot missing %q", name)
	}
}

func TestSnapshotDelta(t *testing.T) {
	pre := GetCounter("test.counter.snapshot.pre")
	pre.Add(7)
	snap := Snapshot()
	if snap["test.counter.snapshot.pre"] != pre.Value() {
		t.Fatalf("snapshot missed existing counter: %v", snap)
	}
	pre.Add(3)
	GetCounter("test.counter.snapshot.post").Add(2)
	GetCounter("test.counter.snapshot.idle").Value() // registered, never moved

	d := snap.Delta()
	if d["test.counter.snapshot.pre"] != 3 {
		t.Fatalf("pre delta = %d, want 3", d["test.counter.snapshot.pre"])
	}
	if d["test.counter.snapshot.post"] != 2 {
		t.Fatalf("post-snapshot counter delta = %d, want 2", d["test.counter.snapshot.post"])
	}
	if _, ok := d["test.counter.snapshot.idle"]; ok {
		t.Fatal("unmoved counter reported in Delta")
	}
	if got := snap.DeltaValue("test.counter.snapshot.pre"); got != 3 {
		t.Fatalf("DeltaValue = %d, want 3", got)
	}
	if got := snap.DeltaValue("test.counter.snapshot.never"); got != 0 {
		t.Fatalf("DeltaValue of unknown counter = %d, want 0", got)
	}
}

func TestCounterConcurrentInc(t *testing.T) {
	c := GetCounter("test.counter.concurrent")
	start := c.Value()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value() - start; got != 8000 {
		t.Fatalf("concurrent incs = %d, want 8000", got)
	}
}
