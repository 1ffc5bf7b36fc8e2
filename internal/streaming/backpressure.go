package streaming

import (
	"time"

	"mpi4spark/internal/vtime"
)

// The PID gains, Spark's PIDRateEstimator defaults. Its derivative gain
// is 0, so the derivative term is left out.
const (
	pidProportional = 1.0
	pidIntegral     = 0.2
)

// pidEstimator is Spark's `pid` RateEstimator
// (PIDRateEstimator.scala) on virtual time: after each completed batch
// it proposes a new ingest bound (events/sec) from the measured
// processing rate, using the scheduling delay as the integral term —
// delay means a backlog of exactly delay*processingRate events has to be
// drained, so the rate must dip below the processing rate until it is.
type pidEstimator struct {
	batchIntervalSec float64
	minRate          float64

	latestTime vtime.Stamp // -1 until the first measurement
	latestRate float64
}

func newPIDEstimator(batchInterval time.Duration, minRate float64) *pidEstimator {
	return &pidEstimator{
		batchIntervalSec: batchInterval.Seconds(),
		minRate:          minRate,
		latestTime:       -1,
	}
}

// update feeds one completed batch (completion stamp, events processed,
// processing time, scheduling delay) and returns the new rate bound. ok
// is false when the measurement is unusable (empty batch, zero
// processing time, out-of-order completion) and the previous bound
// should stay in force.
func (p *pidEstimator) update(completedAt vtime.Stamp, events int64, proc, schedDelay vtime.Stamp) (float64, bool) {
	if completedAt <= p.latestTime || events <= 0 || proc <= 0 {
		return 0, false
	}
	procSec := time.Duration(proc).Seconds()
	procRate := float64(events) / procSec
	if schedDelay < 0 {
		schedDelay = 0
	}
	histErr := time.Duration(schedDelay).Seconds() * procRate / p.batchIntervalSec

	// The first measurement seeds the controller: the sustainable rate is
	// the processing rate, less the drain needed for whatever delay the
	// first batch already accumulated.
	rate := procRate - pidIntegral*histErr
	if p.latestTime >= 0 {
		rate = p.latestRate - pidProportional*(p.latestRate-procRate) - pidIntegral*histErr
	}
	if rate < p.minRate {
		rate = p.minRate
	}
	p.latestTime = completedAt
	p.latestRate = rate
	return rate, true
}
