// Package storage implements the executor-side block store: Spark's
// BlockManager with an in-memory store (the paper's clusters back shuffle
// files with a RAM disk, so memory-resident blocks match the evaluated
// configuration) and the shuffle block naming scheme.
package storage

import (
	"fmt"
	"strconv"
	"sync"
)

// BlockID names a stored block.
type BlockID string

// ShuffleBlockID names the map output of mapper mapID for reducer reduceID
// in shuffle shuffleID, using Spark's "shuffle_<shuffle>_<map>_<reduce>"
// convention.
func ShuffleBlockID(shuffleID, mapID, reduceID int) BlockID {
	// Built by hand: every block written and every block fetched names itself
	// here, and fmt.Sprintf was 4.5 % of a small-block shuffle's CPU.
	var a [72]byte // "shuffle" and three 20-digit ints with their separators
	b := append(a[:0], "shuffle"...)
	for _, n := range [...]int{shuffleID, mapID, reduceID} {
		b = strconv.AppendInt(append(b, '_'), int64(n), 10)
	}
	return BlockID(b)
}

// BlockManager stores blocks for one executor.
type BlockManager struct {
	execID string

	mu     sync.RWMutex
	blocks map[BlockID][]byte
	bytes  int64
}

// NewBlockManager creates an empty block manager owned by execID.
func NewBlockManager(execID string) *BlockManager {
	return &BlockManager{execID: execID, blocks: make(map[BlockID][]byte)}
}

// Put stores data under id, replacing any previous value.
func (bm *BlockManager) Put(id BlockID, data []byte) {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	if old, ok := bm.blocks[id]; ok {
		bm.bytes -= int64(len(old))
	}
	bm.blocks[id] = data
	bm.bytes += int64(len(data))
}

// Get returns the block's bytes; ok reports whether it exists. The slice
// is shared — callers must not mutate it.
func (bm *BlockManager) Get(id BlockID) ([]byte, bool) {
	bm.mu.RLock()
	defer bm.mu.RUnlock()
	d, ok := bm.blocks[id]
	return d, ok
}

// Remove deletes a block, reporting whether it existed.
func (bm *BlockManager) Remove(id BlockID) bool {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	d, ok := bm.blocks[id]
	if ok {
		bm.bytes -= int64(len(d))
		delete(bm.blocks, id)
	}
	return ok
}

// RemoveShuffle deletes every block of the given shuffle, returning the
// number removed.
func (bm *BlockManager) RemoveShuffle(shuffleID int) int {
	prefix := fmt.Sprintf("shuffle_%d_", shuffleID)
	bm.mu.Lock()
	defer bm.mu.Unlock()
	n := 0
	for id, d := range bm.blocks {
		if len(id) >= len(prefix) && string(id[:len(prefix)]) == prefix {
			bm.bytes -= int64(len(d))
			delete(bm.blocks, id)
			n++
		}
	}
	return n
}

// StoredBytes returns the total bytes resident.
func (bm *BlockManager) StoredBytes() int64 {
	bm.mu.RLock()
	defer bm.mu.RUnlock()
	return bm.bytes
}

// BlockCount returns the number of resident blocks.
func (bm *BlockManager) BlockCount() int {
	bm.mu.RLock()
	defer bm.mu.RUnlock()
	return len(bm.blocks)
}
