// Package ucr is a Unified Communication Runtime in the mould of the one
// underlying RDMA-Spark (Lu et al., "High-Performance Design of Apache
// Spark with RDMA"): a chunk-oriented block transfer protocol running over
// verbs (internal/rdma).
//
// UCR serves whole named blocks. Each fetch is answered as a sequence of
// fixed-size chunks, each carrying per-chunk protocol and buffer-management
// overhead on the server CPU — the structural reason RDMA-Spark trails
// MPI4Spark on shuffle-heavy workloads despite using the same wire: MPI's
// rendezvous path streams a message in one protocol exchange, while UCR
// pays its overhead per chunk.
package ucr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/rdma"
	"mpi4spark/internal/vtime"
)

// ErrNotFound is returned when the server cannot resolve a block id.
var ErrNotFound = errors.New("ucr: block not found")

// fetchChunks counts the chunks received, under the name the rpc fetch path
// counts its own: a handle, looked up once and not per fetch.
var fetchChunks = metrics.GetCounter("shuffle.fetch.chunks")

// Config tunes the runtime.
type Config struct {
	// ChunkSize is the transfer granularity in bytes.
	ChunkSize int
	// PerChunkOverhead is the server CPU cost per chunk (protocol
	// bookkeeping, buffer management, JNI crossings in the original).
	PerChunkOverhead time.Duration
	// EngineNsPerByte is the per-byte cost on the shared progress engine
	// (UCR's copy/pipeline stalls), the reason RDMA-Spark cannot sustain
	// wire bandwidth on large shuffles.
	EngineNsPerByte float64
	// RegisterPerFetch registers the block's memory on every fetch,
	// charging the verbs registration cost (RDMA-Spark's on-demand
	// registration mode).
	RegisterPerFetch bool
}

// DefaultConfig matches the calibration used for the paper-shape
// experiments.
func DefaultConfig() Config {
	return Config{
		ChunkSize:        128 << 10,
		PerChunkOverhead: 30 * time.Microsecond,
		EngineNsPerByte:  0.35,
		RegisterPerFetch: true,
	}
}

// Resolver maps a block id to its bytes.
type Resolver func(blockID string) ([]byte, bool)

// Server serves block fetches over UCR.
type Server struct {
	dev     *rdma.Device
	resolve Resolver
	cfg     Config

	// engine serializes all chunk service on the server: UCR drives its
	// endpoints from a single progress engine, so concurrent fetches from
	// different peers queue behind one another — a structural difference
	// from MPI's per-connection progress that the evaluation exposes.
	// It is a Resource rather than a monotone clock so that service is
	// work-conserving: a request arriving at an early virtual time fills
	// an idle gap even when the Go scheduler happens to run it after a
	// later-stamped request from another connection.
	engine vtime.Resource

	mu     sync.Mutex
	conns  []*serverConn
	closed bool
	// serving runs one serve loop per connection, started under mu while
	// closed is false and joined by Close.
	serving vtime.Group
}

// NewServer creates a UCR block server on the given device.
func NewServer(dev *rdma.Device, resolve Resolver, cfg Config) *Server {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultConfig().ChunkSize
	}
	return &Server{dev: dev, resolve: resolve, cfg: cfg}
}

type serverConn struct {
	qp *rdma.QueuePair
}

// Connect establishes a client connection to the server and returns the
// client handle plus the virtual time the connection is ready.
func (s *Server) Connect(clientDev *rdma.Device, at vtime.Stamp) (*Client, vtime.Stamp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, at, rdma.ErrClosed
	}
	if fab := s.dev.Node().Fabric(); fab.Failed(s.dev.Node().Name()) || fab.Failed(clientDev.Node().Name()) {
		return nil, at, fmt.Errorf("ucr: connect to failed node %s: %w", s.dev.Node().Name(), rdma.ErrClosed)
	}
	clientQP, serverQP, ready := rdma.ConnectQP(clientDev, s.dev, at)
	sc := &serverConn{qp: serverQP}
	s.conns = append(s.conns, sc)
	s.serving.Go(func() error {
		s.serve(sc)
		return nil
	})
	return &Client{qp: clientQP}, ready, nil
}

// Close shuts the server and all its connections down, and returns once
// every connection's serve loop has.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := s.conns
	s.mu.Unlock()
	for _, c := range conns {
		c.qp.Close()
	}
	s.serving.Wait()
}

// serve handles one connection's fetch requests sequentially — UCR's
// per-endpoint service loop.
func (s *Server) serve(sc *serverConn) {
	for {
		comp, err := sc.qp.CQ().Wait()
		if err != nil {
			return
		}
		blockID := string(comp.Data)
		vt := comp.VT

		data, ok := s.resolve(blockID)
		if !ok {
			hdr := encodeChunkHeader(notFound, 0, 0)
			if _, err := sc.qp.PostSend(hdr, vt); err != nil {
				return
			}
			continue
		}
		// In-flight corruption, one verdict per served block. CorruptBody
		// returns a damaged copy, so the resolver's stored bytes stay good
		// and a refetch at a later stamp draws a fresh verdict.
		bf := s.dev.Node().Fabric().BodyFaults()
		from, to := s.dev.Node().Name(), sc.qp.RemoteNode().Name()
		if bf != nil {
			if nb, c := bf.CorruptBody(from, to, blockID, data, vt); c {
				data = nb
			}
		}
		if s.cfg.RegisterPerFetch {
			_, regDone := s.dev.RegisterMemory(data, vt)
			_, vt = s.engine.Occupy(vt, (regDone - vt).AsDuration())
		}
		n, _, _ := bytebuf.Carve(len(data), s.cfg.ChunkSize, 0)
		for i := 0; i < n; i++ {
			_, lo, hi := bytebuf.Carve(len(data), s.cfg.ChunkSize, i)
			cost := s.cfg.PerChunkOverhead + time.Duration(s.cfg.EngineNsPerByte*float64(hi-lo))
			_, vt = s.engine.Occupy(vt, cost)
			// Header and chunk go out as one gathered SEND; the chunk is a
			// window onto the resolver's bytes, never copied.
			hdr, chunk := encodeChunkHeader(uint64(len(data)), uint64(lo), uint32(hi-lo)), data[lo:hi]
			cpuFree, err := sc.qp.PostSendGather(hdr, chunk, vt)
			if err != nil {
				return
			}
			// Duplicate delivery of a mid-stream chunk (a retransmit whose
			// original also landed); the client's reassembly fold must
			// drop the replay. A block's final chunk is never duplicated:
			// the header carries no stream id, so a trailing replay would be
			// indistinguishable from the next block's first chunk.
			if bf != nil && hi < len(data) {
				if bf.DupDeliver(from, to, fmt.Sprintf("%s@%d", blockID, lo), vt) {
					if _, err := sc.qp.PostSendGather(hdr, chunk, vt); err != nil {
						return
					}
				}
			}
			if cpuFree > vt {
				// The injection-side CPU time holds the engine too.
				s.engine.Occupy(vt, (cpuFree - vt).AsDuration())
				vt = cpuFree
			}
		}
	}
}

const chunkHeaderLen = 20

// notFound is the total a server announces for a block it cannot resolve.
const notFound = ^uint64(0)

func encodeChunkHeader(total, off uint64, n uint32) []byte {
	h := make([]byte, chunkHeaderLen)
	binary.BigEndian.PutUint64(h[0:], total)
	binary.BigEndian.PutUint64(h[8:], off)
	binary.BigEndian.PutUint32(h[16:], n)
	return h
}

// decodeChunk parses one reply chunk: its header's total and offset, and
// the n body bytes the header announces. Whether they fit the block is
// bytebuf.Reassembly.Fold's to decide.
func decodeChunk(c rdma.Completion) (total, off uint64, body []byte, err error) {
	if len(c.Data) < chunkHeaderLen {
		return 0, 0, nil, fmt.Errorf("ucr: short chunk header (%d bytes)", len(c.Data))
	}
	total, off = binary.BigEndian.Uint64(c.Data[0:]), binary.BigEndian.Uint64(c.Data[8:])
	n := binary.BigEndian.Uint32(c.Data[16:])
	switch {
	case total == notFound:
		return 0, 0, nil, ErrNotFound
	case int(n) > len(c.Body):
		return 0, 0, nil, fmt.Errorf("ucr: %w: header announces %d bytes, %d arrived", bytebuf.ErrMalformedChunk, n, len(c.Body))
	}
	return total, off, c.Body[:n], nil
}

// Client fetches blocks from one server connection. A Client is not safe
// for concurrent fetches (UCR serializes per connection; Spark opens one
// connection per executor pair).
type Client struct {
	qp *rdma.QueuePair
	mu sync.Mutex
}

// FetchBlock retrieves a whole block by id, returning its bytes and the
// virtual time the final chunk arrived. It is FetchBlocks of one (without
// the chunk counter); the caller may keep the returned slice (see
// BlockResult).
func (c *Client) FetchBlock(blockID string, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs, _, _ := c.fetch([]string{blockID}, at)
	return rs[0].Data, rs[0].VT, rs[0].Err
}

// BlockResult is one block's outcome within a batched fetch. Data is an
// immutable garbage-collected slice, valid for as long as it is referenced:
// its chunks by reference, aliasing the bytes the server's resolver returned
// (bytebuf.Reassembly); only a block with a chunk that was copied on the way
// is reassembled, once, in a slice of exactly its size.
type BlockResult struct {
	Data []byte
	VT   vtime.Stamp
	Err  error
}

// FetchBlocks retrieves a batch of blocks over one connection round-trip:
// all requests are posted up front, then the reply streams are drained in
// request order. The server's per-connection service loop handles the
// requests back-to-back, so its chunk service for block i+1 pipelines
// with the client-side drain of block i instead of waiting a round-trip
// per block. Failures are per block: a missing block fails only its slot.
func (c *Client) FetchBlocks(blockIDs []string, at vtime.Stamp) ([]BlockResult, vtime.Stamp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	results, maxVT, chunks := c.fetch(blockIDs, at)
	fetchChunks.Add(chunks)
	return results, maxVT, nil
}

// fetch posts one request per block id and drains the reply streams in
// order. It returns the per-block results, the latest arrival time and the
// number of chunks received. Caller holds c.mu.
func (c *Client) fetch(blockIDs []string, at vtime.Stamp) (results []BlockResult, maxVT vtime.Stamp, chunks int64) {
	results = make([]BlockResult, len(blockIDs))
	maxVT = at
	// Every request is a window of one buffer holding all the ids.
	size := 0
	for _, id := range blockIDs {
		size += len(id)
	}
	ids := make([]byte, 0, size)
	posted := 0
	for _, id := range blockIDs {
		lo := len(ids)
		ids = append(ids, id...)
		if _, err := c.qp.PostSend(ids[lo:len(ids):len(ids)], at); err != nil {
			// Requests that never left fail in place; any posted ones are
			// still drained below so the stream stays in sync.
			for i := posted; i < len(blockIDs); i++ {
				results[i] = BlockResult{VT: at, Err: err}
			}
			break
		}
		posted++
	}
	for i := 0; i < posted; i++ {
		r := &results[i]
		var asm bytebuf.Reassembly
		vt := at
		for {
			comp, err := c.qp.CQ().Wait()
			if err != nil {
				// Connection death mid-batch: this and every remaining
				// block is lost; landed siblings keep their data.
				for j := i; j < posted; j++ {
					results[j] = BlockResult{VT: vt, Err: err}
				}
				return results, vtime.Max(maxVT, vt), chunks
			}
			chunks++
			vt = vtime.Max(vt, comp.VT)
			total, off, body, err := decodeChunk(comp)
			done := false
			if err == nil {
				done, err = asm.Fold(off, total, body) // drops a replayed chunk
			}
			if err != nil {
				*r = BlockResult{VT: vt, Err: fmt.Errorf("%w: %s", err, blockIDs[i])}
				break
			}
			if done {
				*r = BlockResult{Data: asm.Bytes(), VT: vt}
				break
			}
		}
		maxVT = vtime.Max(maxVT, vt)
	}
	return results, maxVT, chunks
}

// Close tears down the client's connection.
func (c *Client) Close() { c.qp.Close() }
