package mpi

import (
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/vtime"
)

// Send performs a blocking standard-mode send of data to dest with the
// given tag, starting at the caller's virtual time `at`. Small messages use
// the eager protocol and return as soon as the sender's CPU is free; large
// messages use rendezvous and return once the receiver has matched and the
// transfer is underway (buffer reusable), which is when MPI_Send returns.
//
// The payload is passed by reference through the simulated wire: callers
// must not mutate it after Send.
func (h *Handle) Send(dest, tag int, data []byte, at vtime.Stamp) vtime.Stamp {
	req := h.Isend(dest, tag, data, at)
	return req.Wait(at)
}

// Isend starts a non-blocking send and returns immediately.
func (h *Handle) Isend(dest, tag int, data []byte, at vtime.Stamp) *SendRequest {
	req := &SendRequest{} // not via IsendGather: one call deeper no longer inlines
	h.isend(req, dest, tag, data, nil, at)
	return req
}

// IsendGather is Isend for a payload in two parts, a header and the body
// that follows it (the analogue of a two-block MPI datatype). The parts
// travel as one message: the protocol is chosen on, and the fabric charged
// for, their combined length, and neither is copied. RecvGather hands them
// back separately; a plain Recv joins them.
//
// The request is made here and filled in by isend so that this wrapper
// inlines: a caller that waits on the request at once, or drops it, keeps it
// on its stack (Irecv likewise).
func (h *Handle) IsendGather(dest, tag int, head, body []byte, at vtime.Stamp) *SendRequest {
	req := &SendRequest{}
	h.isend(req, dest, tag, head, body, at)
	return req
}

func (h *Handle) isend(req *SendRequest, dest, tag int, head, body []byte, at vtime.Stamp) {
	w := h.comm.world
	src := h.Proc()
	dst := h.comm.peer(dest)
	m := &message{comm: h.comm.id, src: h.rank, tag: tag, data: head, body: body}
	if m.size() <= w.EagerThreshold {
		cpuFree, deliver := w.fabric.Transfer(src.node, dst.node, fabric.MPIEager, m.size(), at)
		m.vt = deliver
		dst.engine.deliver(m)
		req.cpuFree, req.completed = cpuFree, true
		return
	}
	cpuFree, rtsArrive := w.fabric.Transfer(src.node, dst.node, fabric.MPIEager, rtsBytes, at)
	m.vt = rtsArrive
	req.rndv = &rndvState{
		fab:         w.fabric,
		from:        src.node,
		to:          dst.node,
		size:        m.size(),
		senderReady: cpuFree,
	}
	m.rndv = req.rndv
	dst.engine.deliver(m)
}

// SendRequest tracks a non-blocking send: an eager send completes at once,
// a rendezvous send when its receiver matches (rndv.done).
type SendRequest struct {
	rndv      *rndvState
	cpuFree   vtime.Stamp
	completed bool
}

// Wait blocks until the send completes and returns the virtual time at
// which the sender may proceed (no earlier than `at`).
func (r *SendRequest) Wait(at vtime.Stamp) vtime.Stamp {
	if !r.completed {
		r.cpuFree = r.rndv.done.Wait()
		r.completed = true
	}
	return vtime.Max(at, r.cpuFree)
}

// Recv performs a blocking receive matching (source, tag); wildcards
// AnySource and AnyTag are honored. It returns the payload and a status
// whose VT is the virtual completion time (never earlier than `at`).
func (h *Handle) Recv(source, tag int, at vtime.Stamp) ([]byte, Status) {
	req := h.Irecv(source, tag, at)
	return req.Wait(at)
}

// RecvGather is Recv for a message that may have been sent with
// IsendGather: it returns the two parts as sent (body is nil for a plain
// send), both aliasing the sender's slices.
func (h *Handle) RecvGather(source, tag int, at vtime.Stamp) (head, body []byte, st Status) {
	req := h.Irecv(source, tag, at)
	return req.WaitGather(at)
}

// Irecv posts a non-blocking receive.
func (h *Handle) Irecv(source, tag int, at vtime.Stamp) *RecvRequest {
	req := &RecvRequest{}
	h.irecv(req, source, tag, at)
	return req
}

func (h *Handle) irecv(req *RecvRequest, source, tag int, at vtime.Stamp) {
	if req.msg, req.pr = h.Proc().engine.postOrMatch(h.comm.id, source, tag, at); req.msg != nil {
		req.msg.complete(at)
	}
}

// RecvRequest tracks a non-blocking receive.
type RecvRequest struct {
	pr  *postedRecv
	msg *message
}

// Wait blocks until the receive completes. It returns the payload and the
// status; Status.VT is the completion time, never earlier than `at`. A
// two-part message is joined into one fresh slice; receivers that expect
// one use WaitGather.
func (r *RecvRequest) Wait(at vtime.Stamp) ([]byte, Status) {
	head, body, st := r.WaitGather(at)
	if len(body) == 0 {
		return head, st
	}
	return append(append(make([]byte, 0, st.Count), head...), body...), st
}

// WaitGather is Wait returning the message's two parts as sent.
func (r *RecvRequest) WaitGather(at vtime.Stamp) (head, body []byte, st Status) {
	if r.msg == nil {
		r.msg = r.pr.done.Wait()
	}
	m := r.msg
	return m.data, m.body, Status{Source: m.src, Tag: m.tag, Count: m.size(), VT: vtime.Max(at, m.vt)}
}

// Iprobe checks for a matching message without blocking — MPI_Iprobe. The
// MPI4Spark-Basic selector loop is built on this call.
func (h *Handle) Iprobe(source, tag int, at vtime.Stamp) (bool, Status) {
	return h.Proc().engine.iprobe(h.comm.id, source, tag, at)
}

// NotifyArrival registers fn to run whenever a message is queued at this
// process without a posted receive to take it, on any of the process's
// communicators: the arrival interrupt an event-driven selector parks on
// between Iprobe scans. Registration is additive (environments sharing one
// rank each register) and calls fn once straight away, so messages queued
// earlier are not missed. fn runs on the sender's goroutine and must not
// block.
func (h *Handle) NotifyArrival(fn func()) {
	e := h.Proc().engine
	e.mu.Lock()
	e.notifiers = append(e.notifiers, fn)
	e.mu.Unlock()
	fn()
}
