// Package faults is a deterministic network fault-injection plane for the
// simulated fabric. A Plan describes per-link fault schedules in virtual
// time — drop (modeled as a retransmit delay, since the fabric's transports
// are reliable and a silently vanished frame would wall-clock-hang a
// blocked receiver), duplicate delivery, delay/jitter, bit-flip corruption
// of block payloads, link flaps, and node-set partitions. Every verdict is
// a pure function of (seed, link, virtual time, payload identity), so a
// faulty run is exactly reproducible regardless of goroutine scheduling,
// and a retry at a later virtual stamp draws a fresh verdict — which is
// what lets recovery converge.
//
// The Plane implements fabric.FaultPlane (delay + link-down verdicts
// consulted inside every Transfer/Dial/Send) and fabric.BodyFaults, which
// the rpc and UCR serve paths consult (corruption and duplicate-delivery
// verdicts at per-block granularity, so injected corruption counts
// reconcile exactly against detections).
package faults

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/vtime"
)

// Window is a half-open virtual-time interval [Start, End).
type Window struct {
	Start vtime.Stamp
	End   vtime.Stamp
}

// contains reports whether the stamp falls inside the window.
func (w Window) contains(at vtime.Stamp) bool {
	return at >= w.Start && at < w.End
}

// LinkRule applies a set of fault rates to every transfer whose endpoints
// match From/To. Matchers are node-name globs of the simplest kind: ""
// matches everything, a trailing '*' matches a prefix, anything else is an
// exact name. A rule with From "w*" and To "" faults all traffic leaving
// workers.
type LinkRule struct {
	From string // sender matcher ("" = any)
	To   string // receiver matcher ("" = any)

	// DropRate is the probability a transfer is "dropped". The fabric's
	// links are reliable and ordered, so a drop is modeled as the
	// retransmit it would cost on a real network: the delivery stamp slips
	// by RetransmitDelay (a protocol RTO stand-in).
	DropRate        float64
	RetransmitDelay time.Duration

	// DupRate is the probability a received block/push frame is delivered
	// twice to the endpoint layer, exercising receiver idempotence.
	DupRate float64

	// CorruptRate is the probability a served block payload has one bit
	// flipped (in a copy — the server's stored block is never harmed).
	CorruptRate float64

	// JitterMax adds a uniform extra delay in [0, JitterMax) to every
	// matching transfer's delivery stamp.
	JitterMax time.Duration

	// Flaps are windows during which the link is administratively down:
	// socket sends fail and dials are refused (the transports' existing
	// connection-loss recovery takes over), while MPI/RDMA transfers — whose
	// runtimes hide link recovery from the application — are delayed to the
	// end of the window instead.
	Flaps []Window
}

// Partition cuts every link between node set A and node set B (both
// directions) for the duration of the window. Names are matched with the
// same glob rules as LinkRule.
type Partition struct {
	A, B   []string
	Window Window
}

// Plan is a complete fault schedule. The zero Plan injects nothing.
type Plan struct {
	Seed       uint64
	Rules      []LinkRule
	Partitions []Partition
}

// Counters is a snapshot of what a Plane has injected so far.
type Counters struct {
	Drops     int64 // transfers delayed by a drop-retransmit
	Dups      int64 // frames delivered twice
	Corrupts  int64 // block payloads bit-flipped
	Delays    int64 // transfers given nonzero jitter
	LinkDowns int64 // sends/dials refused by a flap or partition
}

// Plane evaluates a Plan. It is safe for concurrent use; all verdicts are
// pure functions of the plan and the call's arguments.
type Plane struct {
	plan Plan

	drops     atomic.Int64
	dups      atomic.Int64
	corrupts  atomic.Int64
	delays    atomic.Int64
	linkDowns atomic.Int64
}

// NewPlane builds a Plane for the given plan.
func NewPlane(plan Plan) *Plane {
	return &Plane{plan: plan}
}

// Counters returns a snapshot of everything injected so far.
func (p *Plane) Counters() Counters {
	return Counters{
		Drops:     p.drops.Load(),
		Dups:      p.dups.Load(),
		Corrupts:  p.corrupts.Load(),
		Delays:    p.delays.Load(),
		LinkDowns: p.linkDowns.Load(),
	}
}

// match applies the matcher: "" any, trailing '*' prefix, else exact.
func match(pattern, name string) bool {
	if pattern == "" {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(name, pattern[:len(pattern)-1])
	}
	return pattern == name
}

// matchAny reports whether any pattern in the set matches the name.
func matchAny(patterns []string, name string) bool {
	for _, pat := range patterns {
		if match(pat, name) {
			return true
		}
	}
	return false
}

// splitmix64 is the finalizer from the SplitMix64 generator: a cheap,
// well-mixed 64-bit permutation.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hashString folds a string into the running hash (FNV-1a step then mix).
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001B3
	}
	return splitmix64(h)
}

// verdict draws a deterministic uniform in [0,1) for the given link, draw
// class, virtual stamp, and per-call discriminator, and reports whether it
// falls under rate.
func (p *Plane) verdict(class uint64, from, to string, at vtime.Stamp, disc uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	h := splitmix64(p.plan.Seed ^ class)
	h = hashString(h, from)
	h = hashString(h, to)
	h = splitmix64(h ^ uint64(at))
	h = splitmix64(h ^ disc)
	return float64(h>>11)/(1<<53) < rate
}

// uniform draws a deterministic duration in [0, max).
func (p *Plane) uniform(class uint64, from, to string, at vtime.Stamp, disc uint64, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	h := splitmix64(p.plan.Seed ^ class)
	h = hashString(h, from)
	h = hashString(h, to)
	h = splitmix64(h ^ uint64(at))
	h = splitmix64(h ^ disc)
	return time.Duration(h % uint64(max))
}

const (
	classDrop = iota + 1
	classDup
	classCorrupt
	classJitter
	classFlip // which bit a corruption flips
)

// downUntil returns the end of the latest down-window covering `at` on the
// from→to link, or 0 if the link is up.
func (p *Plane) downUntil(from, to string, at vtime.Stamp) vtime.Stamp {
	var until vtime.Stamp
	for i := range p.plan.Rules {
		r := &p.plan.Rules[i]
		if !match(r.From, from) || !match(r.To, to) {
			continue
		}
		for _, w := range r.Flaps {
			if w.contains(at) && w.End > until {
				until = w.End
			}
		}
	}
	for _, part := range p.plan.Partitions {
		if !part.Window.contains(at) {
			continue
		}
		cut := (matchAny(part.A, from) && matchAny(part.B, to)) ||
			(matchAny(part.B, from) && matchAny(part.A, to))
		if cut && part.Window.End > until {
			until = part.Window.End
		}
	}
	return until
}

// LinkDown reports whether the from→to link is administratively down at
// `at` (flap or partition window). Part of fabric.FaultPlane.
func (p *Plane) LinkDown(from, to string, at vtime.Stamp) bool {
	if from == to {
		return false
	}
	if p.downUntil(from, to, at) > 0 {
		p.linkDowns.Add(1)
		metrics.GetCounter("faults.link.refused").Inc()
		return true
	}
	return false
}

// TransferDelay returns the extra delivery delay for a transfer of n bytes
// from→to at `at`: jitter, a drop-retransmit, and — when the link is inside
// a down window — the wait until the window ends (how an MPI or RDMA
// runtime, which hides link recovery from the application, experiences a
// flap). Part of fabric.FaultPlane.
func (p *Plane) TransferDelay(from, to string, n int, at vtime.Stamp) time.Duration {
	if from == to {
		return 0
	}
	var d time.Duration
	if until := p.downUntil(from, to, at); until > at {
		d += time.Duration(until - at)
	}
	disc := uint64(n)
	for i := range p.plan.Rules {
		r := &p.plan.Rules[i]
		if !match(r.From, from) || !match(r.To, to) {
			continue
		}
		if j := p.uniform(classJitter, from, to, at, disc, r.JitterMax); j > 0 {
			d += j
			p.delays.Add(1)
			metrics.GetCounter("faults.delay.injected").Inc()
		}
		if p.verdict(classDrop, from, to, at, disc, r.DropRate) {
			rto := r.RetransmitDelay
			if rto <= 0 {
				rto = 200 * time.Microsecond
			}
			d += rto
			p.drops.Add(1)
			metrics.GetCounter("faults.drop.injected").Inc()
		}
	}
	return d
}

// CorruptBody decides whether the block payload identified by key, served
// from→to at `at`, gets one bit flipped. On a hit it returns a corrupted
// copy (the caller's buffer — typically the server's stored block — is
// never modified) and true. It is half of fabric.BodyFaults.
func (p *Plane) CorruptBody(from, to, key string, body []byte, at vtime.Stamp) ([]byte, bool) {
	if len(body) == 0 || from == to {
		return nil, false
	}
	disc := hashString(0, key)
	for i := range p.plan.Rules {
		r := &p.plan.Rules[i]
		if !match(r.From, from) || !match(r.To, to) {
			continue
		}
		if p.verdict(classCorrupt, from, to, at, disc, r.CorruptRate) {
			bit := p.uniform(classFlip, from, to, at, disc, time.Duration(len(body)*8))
			cp := make([]byte, len(body))
			copy(cp, body)
			cp[bit/8] ^= 1 << (bit % 8)
			p.corrupts.Add(1)
			metrics.GetCounter("faults.corrupt.injected").Inc()
			return cp, true
		}
	}
	return nil, false
}

// DupDeliver decides whether the frame identified by key, received on the
// from→to link at `at`, should be delivered twice to the endpoint layer.
// It is the other half of fabric.BodyFaults.
func (p *Plane) DupDeliver(from, to, key string, at vtime.Stamp) bool {
	if from == to {
		return false
	}
	disc := hashString(0, key)
	for i := range p.plan.Rules {
		r := &p.plan.Rules[i]
		if !match(r.From, from) || !match(r.To, to) {
			continue
		}
		if p.verdict(classDup, from, to, at, disc, r.DupRate) {
			p.dups.Add(1)
			metrics.GetCounter("faults.dup.injected").Inc()
			return true
		}
	}
	return false
}

// String summarizes the plan for logs.
func (p *Plane) String() string {
	return fmt.Sprintf("faults.Plane{seed=%d rules=%d partitions=%d}",
		p.plan.Seed, len(p.plan.Rules), len(p.plan.Partitions))
}
