package metrics

import "testing"

// collectiveCounterNames lists every counter the collective layer
// publishes, grouped per operation as (ops, bytes, chunks).
var collectiveCounterNames = [][3]string{
	{CollectiveBcastOps, CollectiveBcastBytes, CollectiveBcastChunks},
	{CollectiveReduceOps, CollectiveReduceBytes, CollectiveReduceChunks},
	{CollectiveAllreduceOps, CollectiveAllreduceBytes, CollectiveAllreduceChunks},
}

func TestCollectiveCounterNamesDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for _, group := range collectiveCounterNames {
		for _, name := range group {
			if seen[name] {
				t.Fatalf("duplicate collective counter name %q", name)
			}
			seen[name] = true
		}
	}
	if len(seen) != 9 {
		t.Fatalf("expected 9 collective counter names, got %d", len(seen))
	}
}

func TestCollectiveCountersRegister(t *testing.T) {
	for _, group := range collectiveCounterNames {
		for _, name := range group {
			before := CounterValue(name)
			GetCounter(name).Inc()
			if got := CounterValue(name) - before; got != 1 {
				t.Fatalf("%s: delta = %d after Inc, want 1", name, got)
			}
		}
	}
	// Byte counters take payload-sized deltas.
	b := GetCounter(CollectiveBcastBytes)
	before := b.Value()
	b.Add(4 << 20)
	if got := b.Value() - before; got != 4<<20 {
		t.Fatalf("%s: delta = %d after Add, want %d", CollectiveBcastBytes, got, 4<<20)
	}
}

func TestCollectiveCountersListed(t *testing.T) {
	for _, group := range collectiveCounterNames {
		for _, name := range group {
			GetCounter(name) // ensure registered
		}
	}
	listed := Snapshot()
	for _, group := range collectiveCounterNames {
		for _, name := range group {
			if _, ok := listed[name]; !ok {
				t.Fatalf("Snapshot missing %q", name)
			}
		}
	}
}
