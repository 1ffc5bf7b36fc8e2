package shuffle

import (
	"fmt"
	"hash/crc32"
	"time"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/vtime"
)

// Counter names for the end-to-end integrity pipeline and fetch hardening.
// In a fault-injected run, faults.corrupt.injected (landed corrupt frames)
// reconciles exactly with CounterCorruptDetected: every injected corruption
// is detected exactly once, at ingest or at fetch.
const (
	// CounterIntegrityChecked counts CRC32C verifications performed.
	CounterIntegrityChecked = "shuffle.integrity.checked"
	// CounterCorruptDetected counts checksum mismatches (and, when sums are
	// known for a whole merged run, structural run anomalies).
	CounterCorruptDetected = "shuffle.integrity.corrupt_detected"
	// CounterIntegrityRefetches counts refetches triggered by verification.
	CounterIntegrityRefetches = "shuffle.integrity.refetches"
	// CounterBreakerTrips / CounterBreakerResets count per-peer circuit
	// breaker transitions.
	CounterBreakerTrips  = "shuffle.breaker.trips"
	CounterBreakerResets = "shuffle.breaker.resets"
	// CounterRetryJitterVT accumulates virtual time added by deterministic
	// retry jitter.
	CounterRetryJitterVT = "shuffle.fetch.retry_jitter_vt"
)

// castagnoli is the CRC32C polynomial table. CRC32C is what Spark's shuffle
// checksum support (SPARK-35275) and most storage systems use: hardware-
// accelerated on amd64/arm64, and guaranteed to catch any single-bit flip.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of a shuffle block payload. It is computed
// once at write/push time, carried in MapStatus.Sums and PushBlockRequest
// frames, and verified wherever a block crosses a trust boundary (service
// ingest, reducer fetch, each block of a merged run).
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// CorruptBlockError reports that a fetched shuffle block failed its CRC32C
// verification: the bytes that landed are not the bytes the map task wrote.
// It is retryable — a refetch draws fresh network verdicts — and after the
// retry budget it walks the same degradation chain as a lost block: the
// serving location is blacklisted and the producing map stage recomputed.
type CorruptBlockError struct {
	ShuffleID int
	MapID     int
	ReduceID  int
	// Loc is the location the corrupt bytes were served from.
	Loc  Location
	Want uint32
	Got  uint32
}

// Error implements error.
func (e *CorruptBlockError) Error() string {
	return fmt.Sprintf("shuffle %d: corrupt block: map %d reduce %d from %s: crc32c %08x, want %08x",
		e.ShuffleID, e.MapID, e.ReduceID, e.Loc.ExecID, e.Got, e.Want)
}

// peerState is the circuit-breaker bookkeeping for one serving peer.
type peerState struct {
	consecutive int         // failures since the last success
	open        bool        // breaker tripped
	openUntil   vtime.Stamp // half-open probe allowed at/after this stamp
}

// defaultBreakerCooldown is how long a tripped breaker stays open before
// admitting a half-open probe, when the manager is not configured.
const defaultBreakerCooldown = 5 * time.Millisecond

func (m *Manager) breakerCooldown() time.Duration {
	if m.BreakerCooldown > 0 {
		return m.BreakerCooldown
	}
	return defaultBreakerCooldown
}

// breakerAllow gates one fetch attempt against peer at the given stamp. A
// tripped breaker fails the attempt fast (no virtual wait, no traffic)
// until its cooldown elapses; the first attempt at or past openUntil is the
// half-open probe.
func (m *Manager) breakerAllow(peer string, at vtime.Stamp) error {
	if m.BreakerThreshold <= 0 || peer == "" {
		return nil
	}
	m.brMu.Lock()
	defer m.brMu.Unlock()
	st := m.brPeers[peer]
	if st == nil || !st.open || at >= st.openUntil {
		return nil
	}
	return fmt.Errorf("circuit breaker open for %s until %v", peer, st.openUntil)
}

// breakerFailure charges one failed attempt against peer. Reaching the
// consecutive-failure threshold trips the breaker; a failed half-open probe
// re-arms it for another cooldown.
func (m *Manager) breakerFailure(peer string, at vtime.Stamp) {
	if m.BreakerThreshold <= 0 || peer == "" {
		return
	}
	m.brMu.Lock()
	defer m.brMu.Unlock()
	if m.brPeers == nil {
		m.brPeers = make(map[string]*peerState)
	}
	st := m.brPeers[peer]
	if st == nil {
		st = &peerState{}
		m.brPeers[peer] = st
	}
	st.consecutive++
	if st.open {
		if at >= st.openUntil {
			// Failed half-open probe: stay open for another cooldown.
			st.openUntil = at.Add(m.breakerCooldown())
		}
		return
	}
	if st.consecutive >= m.BreakerThreshold {
		st.open = true
		st.openUntil = at.Add(m.breakerCooldown())
		metrics.GetCounter(CounterBreakerTrips).Inc()
	}
}

// breakerSuccess records a successful attempt against peer, resetting its
// failure accounting and closing a tripped breaker (the half-open probe
// succeeded).
func (m *Manager) breakerSuccess(peer string) {
	if m.BreakerThreshold <= 0 || peer == "" {
		return
	}
	m.brMu.Lock()
	defer m.brMu.Unlock()
	st := m.brPeers[peer]
	if st == nil {
		return
	}
	st.consecutive = 0
	if st.open {
		st.open = false
		st.openUntil = 0
		metrics.GetCounter(CounterBreakerResets).Inc()
	}
}
