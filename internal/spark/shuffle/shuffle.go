// Package shuffle implements Spark's shuffle machinery: the sort-based
// shuffle manager's block layout, the map-output tracker, the
// ShuffleBlockFetcherIterator's local/remote fetch logic, and the
// BlockTransferService abstraction with its two implementations —
// Netty-based (Vanilla Spark and, via transport substitution, both
// MPI4Spark designs) and UCR-based (RDMA-Spark).
package shuffle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/vtime"
)

// Location identifies where a block lives: an executor (or external
// shuffle service) and its transfer service address. Service marks a
// location hosted by a per-node external shuffle service rather than an
// executor — service-hosted outputs survive executor loss, so
// UnregisterOutputsOnExecutor never matches them.
type Location struct {
	ExecID  string
	Addr    fabric.Addr
	Service bool
}

// MapStatus records one completed map task's output: where it is, the
// per-reduce-partition block sizes, and the per-partition CRC32C checksums
// computed at write time. Sums travel with the status through the tracker
// so every reducer can verify each fetched block end to end; Sums[r] of an
// empty partition is 0 (the CRC32C of zero bytes).
type MapStatus struct {
	Loc   Location
	Sizes []int64
	Sums  []uint32
}

// locFlagService marks a service-hosted location in the encoded status.
const locFlagService byte = 1 << 0

// Encode serializes the status. The flags byte carries Location.Service so
// service-hosted outputs survive the tracker's hole-tolerant RPC
// round-trip — without it a reducer-side deserialization would demote a
// service location to an executor location, and the next executor loss
// would wrongly forget it.
func (m *MapStatus) Encode(buf *bytebuf.Buf) {
	buf.WriteString(m.Loc.ExecID)
	buf.WriteString(m.Loc.Addr.Node)
	buf.WriteString(m.Loc.Addr.Port)
	var flags byte
	if m.Loc.Service {
		flags |= locFlagService
	}
	buf.WriteByte(flags)
	buf.WriteUint32(uint32(len(m.Sizes)))
	for _, s := range m.Sizes {
		buf.WriteInt64(s)
	}
	buf.WriteUint32(uint32(len(m.Sums)))
	for _, s := range m.Sums {
		buf.WriteUint32(s)
	}
}

// ErrMalformedStatuses marks a status payload encodeOutputs cannot have
// written: a count its bytes cannot hold, statuses that number different
// partitions, a byte that is neither of its two values, or trailing bytes.
var ErrMalformedStatuses = errors.New("shuffle: malformed map statuses")

// readCount reads a count of items of at least min bytes each and rejects,
// before anything is allocated from it, one the readable bytes cannot hold.
func readCount(buf *bytebuf.Buf, min int, what string) (uint32, error) {
	n, err := buf.ReadUint32()
	if err == nil && int64(n)*int64(min) > int64(buf.ReadableBytes()) {
		err = fmt.Errorf("%w: %d %s in %d bytes", ErrMalformedStatuses, n, what, buf.ReadableBytes())
	}
	return n, err
}

// readInterned reads a length-prefixed string and returns the equal one from
// seen if there is one, else a new one it adds to seen: a tracker reply names
// the same few executors, nodes and ports in every status.
func readInterned(buf *bytebuf.Buf, seen []string) (string, []string, error) {
	n, err := buf.ReadUint32()
	if err != nil {
		return "", seen, err
	}
	p, err := buf.ReadSlice(int(n))
	if err != nil {
		return "", seen, err
	}
	for _, s := range seen {
		if s == string(p) {
			return s, seen, nil
		}
	}
	s := string(p)
	return s, append(seen, s), nil
}

// MapOutputTracker is the driver-side registry of shuffle map outputs.
type MapOutputTracker struct {
	mu       sync.RWMutex
	statuses map[int][]*MapStatus // shuffleID -> status per mapID
	// wire is the serialized form ServeTracker replies with (replies alias
	// it): dropped by every mutator, never written once stored.
	wire map[int][]byte
}

// NewMapOutputTracker creates an empty tracker.
func NewMapOutputTracker() *MapOutputTracker {
	return &MapOutputTracker{statuses: make(map[int][]*MapStatus), wire: make(map[int][]byte)}
}

// RegisterShuffle reserves slots for a shuffle's map outputs.
func (t *MapOutputTracker) RegisterShuffle(shuffleID, numMaps int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.wire, shuffleID)
	t.statuses[shuffleID] = make([]*MapStatus, numMaps)
}

// RegisterMapOutput records the status of one completed map task.
func (t *MapOutputTracker) RegisterMapOutput(shuffleID, mapID int, st *MapStatus) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ss, ok := t.statuses[shuffleID]
	if !ok {
		return fmt.Errorf("shuffle: unregistered shuffle %d", shuffleID)
	}
	if mapID < 0 || mapID >= len(ss) {
		return fmt.Errorf("shuffle: map id %d out of range (%d maps)", mapID, len(ss))
	}
	delete(t.wire, shuffleID)
	ss[mapID] = st
	return nil
}

// Outputs returns the statuses for a shuffle; incomplete outputs are nil.
func (t *MapOutputTracker) Outputs(shuffleID int) ([]*MapStatus, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ss, ok := t.statuses[shuffleID]
	if !ok {
		return nil, fmt.Errorf("shuffle: unregistered shuffle %d", shuffleID)
	}
	return append([]*MapStatus(nil), ss...), nil
}

// SizesByReduce aggregates a shuffle's registered map statuses into the
// per-reduce-partition view the adaptive planner consumes: totals[r] is
// the bytes destined for reduce partition r summed over every map output,
// and perMap[r][m] is map m's contribution to it. Missing map outputs
// contribute zero; callers that need completeness use MissingOutputs.
func (t *MapOutputTracker) SizesByReduce(shuffleID int) (totals []int64, perMap [][]int64, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ss, ok := t.statuses[shuffleID]
	if !ok {
		return nil, nil, fmt.Errorf("shuffle: unregistered shuffle %d", shuffleID)
	}
	numReduce := 0
	for _, st := range ss {
		if st != nil {
			numReduce = len(st.Sizes)
			break
		}
	}
	totals = make([]int64, numReduce)
	perMap = make([][]int64, numReduce)
	for r := range perMap {
		perMap[r] = make([]int64, len(ss))
	}
	for m, st := range ss {
		if st == nil {
			continue
		}
		for r, sz := range st.Sizes {
			if r < numReduce {
				totals[r] += sz
				perMap[r][m] = sz
			}
		}
	}
	return totals, perMap, nil
}

// UnregisterOutputsOnExecutor forgets every map output registered on the
// given executor, across all shuffles — the DAGScheduler's response to an
// executor loss. It returns the ids of the shuffles that lost an output,
// sorted, so the scheduler knows which map stages to (partially) resubmit.
func (t *MapOutputTracker) UnregisterOutputsOnExecutor(execID string) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lost []int
	for shuffleID, ss := range t.statuses {
		for mapID, st := range ss {
			if st != nil && st.Loc.ExecID == execID {
				delete(t.wire, shuffleID)
				ss[mapID] = nil
				if len(lost) == 0 || lost[len(lost)-1] != shuffleID {
					lost = append(lost, shuffleID)
				}
			}
		}
	}
	slices.Sort(lost)
	return lost
}

// MissingOutputs lists the map ids of a shuffle with no registered status
// (never completed, or unregistered after an executor loss).
func (t *MapOutputTracker) MissingOutputs(shuffleID int) ([]int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ss, ok := t.statuses[shuffleID]
	if !ok {
		return nil, fmt.Errorf("shuffle: unregistered shuffle %d", shuffleID)
	}
	var missing []int
	for mapID, st := range ss {
		if st == nil {
			missing = append(missing, mapID)
		}
	}
	return missing, nil
}

// SerializeOutputs encodes all statuses of a shuffle for the tracker RPC.
// Missing outputs (unregistered after an executor loss, or not yet
// computed) serialize as explicit holes: the reducer deserializes them as
// nil and turns them into a metadata fetch failure, which triggers the
// map-stage resubmission — Spark's MetadataFetchFailedException path. Every
// call encodes afresh; the tracker endpoint replies from wireOutputs.
func (t *MapOutputTracker) SerializeOutputs(shuffleID int) ([]byte, error) {
	ss, err := t.Outputs(shuffleID)
	if err != nil {
		return nil, err
	}
	return encodeOutputs(ss), nil
}

// encodeOutputs allocates the wire form of ss once, at its exact size.
func encodeOutputs(ss []*MapStatus) []byte {
	n := 4 + len(ss)
	for _, s := range ss {
		if s != nil { // what Encode writes: 3 string lengths, flags, 2 counts = 21 fixed bytes
			n += 21 + len(s.Loc.ExecID) + len(s.Loc.Addr.Node) + len(s.Loc.Addr.Port) + 8*len(s.Sizes) + 4*len(s.Sums)
		}
	}
	buf := bytebuf.New(n)
	buf.WriteUint32(uint32(len(ss)))
	for _, s := range ss {
		if s == nil {
			buf.WriteByte(0)
			continue
		}
		buf.WriteByte(1)
		s.Encode(buf)
	}
	return buf.Readable() // exactly n bytes were written: the buffer never grew
}

// wireOutputs returns the shuffle's cached wire form (nil if unregistered),
// encoding it if a mutator dropped it; the write lock keeps a mutation from
// falling between encode and store.
func (t *MapOutputTracker) wireOutputs(shuffleID int) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, cached := t.wire[shuffleID]
	if ss, ok := t.statuses[shuffleID]; ok && !cached {
		data = encodeOutputs(ss)
		t.wire[shuffleID] = data
	}
	return data
}

// DeserializeOutputs decodes a tracker RPC payload; holes come back nil.
//
// A reply costs a handful of allocations, however many statuses it holds:
// the statuses are one []MapStatus, their Sizes and Sums cap-limited windows
// of one []int64 and one []uint32 (an append to one status's slice cannot
// reach a neighbour's), and each distinct location string is made once.
// Every status must number the same partitions, and only what encodeOutputs
// writes is accepted (presence and flags bytes, nothing after the last
// entry), so an accepted reply re-encodes to the same bytes.
func DeserializeOutputs(data []byte) ([]*MapStatus, error) {
	var buf bytebuf.Buf
	buf.SetBytes(data)
	n, err := readCount(&buf, 1, "entries") // an entry is at least its presence byte
	if err != nil {
		return nil, err
	}
	out := make([]*MapStatus, n)
	var (
		slab        []MapStatus
		sizes       []int64
		sums        []uint32
		parts, used int
		seen        = make([]string, 0, 8)
	)
	for i := range out {
		present, err := buf.ReadByte()
		if err != nil {
			return nil, err
		}
		if present == 0 {
			continue
		}
		if present != 1 {
			return nil, fmt.Errorf("%w: presence byte %d", ErrMalformedStatuses, present)
		}
		var loc Location
		for _, s := range [...]*string{&loc.ExecID, &loc.Addr.Node, &loc.Addr.Port} {
			if *s, seen, err = readInterned(&buf, seen); err != nil {
				return nil, err
			}
		}
		flags, err := buf.ReadByte()
		if err != nil {
			return nil, err
		}
		if flags&^locFlagService != 0 {
			return nil, fmt.Errorf("%w: flags %#x", ErrMalformedStatuses, flags)
		}
		loc.Service = flags != 0
		np, err := readCount(&buf, 8, "sizes")
		if err != nil {
			return nil, err
		}
		rawSizes, _ := buf.ReadSlice(8 * int(np)) // readCount saw the bytes
		ns, err := readCount(&buf, 4, "sums")
		if err != nil {
			return nil, err
		}
		if ns != np {
			return nil, fmt.Errorf("%w: %d sums for %d partitions", ErrMalformedStatuses, ns, np)
		}
		rawSums, _ := buf.ReadSlice(4 * int(ns))
		if used == 0 {
			// The slabs hold this status and every one left, as far as the
			// bytes left can: each takes at least 22 bytes and its 12 per
			// partition.
			parts = int(np)
			k := 1 + min(len(out)-i-1, buf.ReadableBytes()/(22+12*parts))
			slab, sizes, sums = make([]MapStatus, k), make([]int64, k*parts), make([]uint32, k*parts)
		} else if int(np) != parts {
			return nil, fmt.Errorf("%w: %d partitions after %d", ErrMalformedStatuses, np, parts)
		}
		lo, hi := used*parts, (used+1)*parts
		st := &slab[used]
		*st = MapStatus{Loc: loc, Sizes: sizes[lo:hi:hi], Sums: sums[lo:hi:hi]}
		for k := range st.Sizes {
			st.Sizes[k] = int64(binary.BigEndian.Uint64(rawSizes[8*k:]))
			st.Sums[k] = binary.BigEndian.Uint32(rawSums[4*k:])
		}
		out[i] = st
		used++
	}
	if buf.ReadableBytes() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last status", ErrMalformedStatuses, buf.ReadableBytes())
	}
	return out, nil
}

// TrackerEndpoint is the name of the driver endpoint serving map-output
// queries.
const TrackerEndpoint = "MapOutputTracker"

// ServeTracker registers the tracker RPC endpoint on the driver's env.
// Requests carry the decimal shuffle id; responses carry the serialized
// statuses.
func ServeTracker(env *rpc.Env, t *MapOutputTracker) error {
	return env.RegisterEndpoint(TrackerEndpoint, func(c *rpc.Call) {
		shuffleID, err := strconv.Atoi(string(c.Payload))
		if err != nil {
			c.Reply(nil, c.VT)
			return
		}
		c.Reply(t.wireOutputs(shuffleID), c.VT)
	})
}

// TrackerClient is the executor-side view of the tracker: one fetch per
// shuffle, whose result is the cache.
type TrackerClient struct {
	env    *rpc.Env
	driver fabric.Addr

	mu      sync.Mutex
	fetches map[int]*trackerFetch
}

// trackerFetch is one Ask for a shuffle's statuses, sent at issued and
// answered at ready; done is put once the other fields are final.
type trackerFetch struct {
	done          vtime.Reply[struct{}]
	statuses      []*MapStatus
	issued, ready vtime.Stamp
	err           error
}

// NewTrackerClient builds a client that queries the driver's tracker.
func NewTrackerClient(env *rpc.Env, driver fabric.Addr) *TrackerClient {
	return &TrackerClient{env: env, driver: driver, fetches: make(map[int]*trackerFetch)}
}

// GetOutputs returns a shuffle's map statuses. The first caller Asks the
// driver, callers that arrive meanwhile wait for that reply (Spark's
// MapOutputTrackerWorker.fetching), later ones reuse it; a failed fetch is
// handed to its waiters and not kept. Each caller gets its own slice.
// A caller at stamp at leaves at at if the reply was already there (at >=
// ready) and at ready if it joined the fetch (issued <= at < ready). If at <
// issued it would, in virtual time, have sent the Ask itself, and only host
// scheduling made a later-stamped thread the leader: it leaves at at + (ready
// - issued). That arm disappears under ROADMAP item 1's kernel, where the
// least stamp always leads.
func (c *TrackerClient) GetOutputs(shuffleID int, at vtime.Stamp) ([]*MapStatus, vtime.Stamp, error) {
	c.mu.Lock()
	f, joined := c.fetches[shuffleID]
	if !joined {
		f = &trackerFetch{issued: at}
		c.fetches[shuffleID] = f
	}
	c.mu.Unlock()
	if !joined {
		f.statuses, f.ready, f.err = c.fetch(shuffleID, at)
		if f.err != nil {
			c.mu.Lock()
			if c.fetches[shuffleID] == f { // not if a newer fetch took its place
				delete(c.fetches, shuffleID)
			}
			c.mu.Unlock()
		}
		f.done.Put(struct{}{})
	}
	f.done.Wait()
	if f.err != nil {
		return nil, at, f.err
	}
	if at < f.issued {
		at += f.ready - f.issued
	} else if at < f.ready {
		at = f.ready
	}
	return append([]*MapStatus(nil), f.statuses...), at, nil
}

// fetch is the one exchange with the driver's tracker endpoint.
func (c *TrackerClient) fetch(shuffleID int, at vtime.Stamp) ([]*MapStatus, vtime.Stamp, error) {
	trackerAsks.Inc()
	data, vt, err := c.env.Ask(c.driver, TrackerEndpoint, []byte(strconv.Itoa(shuffleID)), at)
	if err != nil {
		return nil, at, err
	}
	if data == nil {
		return nil, vt, fmt.Errorf("shuffle: tracker has no outputs for shuffle %d", shuffleID)
	}
	trackerReplyBytes.Add(int64(len(data)))
	ss, err := DeserializeOutputs(data)
	return ss, vt, err
}

// Invalidate detaches a shuffle's fetch (used when a stage is retried): the
// next caller Asks again, and a fetch in flight reaches only its waiters.
func (c *TrackerClient) Invalidate(shuffleID int) {
	c.mu.Lock()
	delete(c.fetches, shuffleID)
	c.mu.Unlock()
}
