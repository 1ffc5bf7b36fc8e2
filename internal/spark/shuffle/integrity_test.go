package shuffle

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/vtime"
)

func TestChecksumCatchesEveryBitFlip(t *testing.T) {
	data := []byte("the bytes the map task wrote, exactly")
	want := Checksum(data)
	for bit := 0; bit < len(data)*8; bit++ {
		cp := append([]byte(nil), data...)
		cp[bit/8] ^= 1 << (bit % 8)
		if Checksum(cp) == want {
			t.Fatalf("bit flip at %d not caught by CRC32C", bit)
		}
	}
}

func TestCorruptBlockErrorChain(t *testing.T) {
	ce := &CorruptBlockError{ShuffleID: 1, MapID: 2, ReduceID: 3,
		Loc: Location{ExecID: "exec-1"}, Want: 0xdead, Got: 0xbeef}
	wrapped := fmt.Errorf("fetch: %w", ce)
	var got *CorruptBlockError
	if !errors.As(wrapped, &got) || got != ce {
		t.Fatalf("errors.As failed to recover the typed error from %v", wrapped)
	}
	if errors.As(fmt.Errorf("plain"), &got) {
		t.Fatal("errors.As matched a plain error")
	}
}

// TestBreakerTripAndReset walks the breaker through trip, failed and
// successful half-open probes and reset, at an explicit cooldown and at the
// manager's default one.
func TestBreakerTripAndReset(t *testing.T) {
	for _, m := range []*Manager{
		{BreakerThreshold: 3, BreakerCooldown: time.Millisecond},
		{BreakerThreshold: 3},
	} {
		t.Run(fmt.Sprintf("cooldown=%v", m.breakerCooldown()), func(t *testing.T) {
			cooldown := m.breakerCooldown()
			snap := metrics.Snapshot()
			at := vtime.Stamp(0)

			for i := 0; i < 2; i++ {
				m.breakerFailure("peer-a", at)
			}
			if err := m.breakerAllow("peer-a", at); err != nil {
				t.Fatalf("breaker tripped below threshold: %v", err)
			}
			m.breakerFailure("peer-a", at)
			if err := m.breakerAllow("peer-a", at.Add(time.Microsecond)); err == nil {
				t.Fatal("breaker did not trip at the consecutive-failure threshold")
			}
			if d := snap.DeltaValue(CounterBreakerTrips); d != 1 {
				t.Fatalf("breaker trips counter = %d, want 1", d)
			}
			// Other peers are unaffected.
			if err := m.breakerAllow("peer-b", at); err != nil {
				t.Fatalf("unrelated peer gated: %v", err)
			}

			// Half-open probe admitted at/after the cooldown; a failed probe
			// re-arms for another full cooldown.
			probeAt := at.Add(cooldown)
			if err := m.breakerAllow("peer-a", probeAt); err != nil {
				t.Fatalf("half-open probe refused: %v", err)
			}
			m.breakerFailure("peer-a", probeAt)
			if err := m.breakerAllow("peer-a", probeAt.Add(time.Microsecond)); err == nil {
				t.Fatal("failed half-open probe did not re-arm the breaker")
			}

			// A successful probe closes the breaker and resets the accounting.
			probe2 := probeAt.Add(cooldown)
			if err := m.breakerAllow("peer-a", probe2); err != nil {
				t.Fatalf("second half-open probe refused: %v", err)
			}
			m.breakerSuccess("peer-a")
			if err := m.breakerAllow("peer-a", probe2); err != nil {
				t.Fatalf("breaker still open after successful probe: %v", err)
			}
			if d := snap.DeltaValue(CounterBreakerResets); d != 1 {
				t.Fatalf("breaker resets counter = %d, want 1", d)
			}
			// Failure accounting restarted from zero.
			m.breakerFailure("peer-a", probe2)
			if err := m.breakerAllow("peer-a", probe2.Add(time.Microsecond)); err != nil {
				t.Fatalf("breaker re-tripped on first failure after reset: %v", err)
			}
		})
	}
}

func TestBreakerDisabledByDefault(t *testing.T) {
	m := &Manager{}
	for i := 0; i < 100; i++ {
		m.breakerFailure("peer", 0)
	}
	if err := m.breakerAllow("peer", 1); err != nil {
		t.Fatalf("zero-valued manager gated a fetch: %v", err)
	}
}

func TestRetryJitterDeterministicAndBounded(t *testing.T) {
	p := DefaultRetryPolicy()
	for retry := 1; retry <= p.MaxRetries; retry++ {
		bound := time.Duration(p.JitterFrac * float64(p.backoff(retry)))
		for _, key := range []string{"shuffle_0_1_2", "shuffle_0_3_2", "merged_1_0_5_2"} {
			j := p.jitter(key, retry)
			if j != p.jitter(key, retry) {
				t.Fatalf("jitter(%q,%d) not deterministic", key, retry)
			}
			if j < 0 || j >= bound {
				t.Fatalf("jitter(%q,%d) = %v outside [0,%v)", key, retry, j, bound)
			}
		}
	}
	// Different blocks decorrelate: with half-backoff jitter the odds of
	// three keys colliding by chance are negligible.
	a, b, c := p.jitter("block-a", 1), p.jitter("block-b", 1), p.jitter("block-c", 1)
	if a == b && b == c {
		t.Fatalf("jitter identical across distinct keys: %v", a)
	}
	if (RetryPolicy{JitterFrac: 0, RetryWait: time.Millisecond}).jitter("k", 1) != 0 {
		t.Fatal("zero JitterFrac did not disable jitter")
	}
}
