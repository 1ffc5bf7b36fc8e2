// Package storage implements the executor-side block store: Spark's
// BlockManager with an in-memory store (the paper's clusters back shuffle
// files with a RAM disk, so memory-resident blocks match the evaluated
// configuration) and the shuffle block naming scheme.
package storage

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// BlockID names a stored block.
type BlockID string

// shuffleBlockPrefix begins every name ShuffleBlockID gives.
const shuffleBlockPrefix = "shuffle"

// ShuffleBlockID names the map output of mapper mapID for reducer reduceID
// in shuffle shuffleID, using Spark's "shuffle_<shuffle>_<map>_<reduce>"
// convention. A task that names many blocks uses ShuffleBlockIDs.
func ShuffleBlockID(shuffleID, mapID, reduceID int) BlockID {
	var a [72]byte // "shuffle" and three 20-digit ints with their separators
	return BlockID(appendShuffleBlockID(a[:0], shuffleID, mapID, reduceID))
}

// appendShuffleBlockID appends ShuffleBlockID's name to b. Built by hand:
// fmt.Sprintf was 4.5 % of a small-block shuffle's CPU.
func appendShuffleBlockID(b []byte, shuffleID, mapID, reduceID int) []byte {
	b = append(b, shuffleBlockPrefix...)
	for _, n := range [...]int{shuffleID, mapID, reduceID} {
		b = strconv.AppendInt(append(b, '_'), int64(n), 10)
	}
	return b
}

// ShuffleBlockIDs names many shuffle blocks from one string: every id it
// returns is a substring of one buffer and byte-identical to
// ShuffleBlockID's, so a task naming n blocks pays one allocation, not n. The
// buffer is only ever appended to, so an id stays valid after later calls;
// one kept id keeps the whole buffer reachable. The zero value is ready to
// use; Grow sizes it. Not safe for concurrent use.
type ShuffleBlockIDs struct {
	b strings.Builder
}

// Grow makes room for n more ids of shuffle shuffleID whose map and reduce
// ids lie in [0, maxMapID] and [0, maxReduceID]. An id beyond that still
// comes out right; it may cost another allocation.
func (ids *ShuffleBlockIDs) Grow(n, shuffleID, maxMapID, maxReduceID int) {
	var a [72]byte
	ids.b.Grow(n * len(appendShuffleBlockID(a[:0], shuffleID, maxMapID, maxReduceID)))
}

// ID names block (shuffleID, mapID, reduceID).
func (ids *ShuffleBlockIDs) ID(shuffleID, mapID, reduceID int) BlockID {
	var a [72]byte
	start := ids.b.Len()
	ids.b.Write(appendShuffleBlockID(a[:0], shuffleID, mapID, reduceID))
	return BlockID(ids.b.String()[start:])
}

// ParseShuffleBlockID is ShuffleBlockID's inverse over non-negative ids: it
// accepts exactly the names ShuffleBlockID gives them.
func ParseShuffleBlockID(id string) (shuffleID, mapID, reduceID int, ok bool) {
	var n [3]int
	if !ParseNumberedID(id, shuffleBlockPrefix, n[:]) {
		return 0, 0, 0, false
	}
	return n[0], n[1], n[2], true
}

// ParseNumberedID reports whether id is prefix followed by exactly len(nums)
// fields "_<n>", each n a non-negative decimal int in canonical form (no
// sign, no space, no leading zero), and stores the numbers in nums. An id it
// accepts is the one strconv.Itoa's digits rebuild, so a block-id parser
// built on it accepts only what its formatter gives.
func ParseNumberedID(id, prefix string, nums []int) bool {
	rest, ok := strings.CutPrefix(id, prefix)
	if !ok {
		return false
	}
	for i := range nums {
		if rest == "" || rest[0] != '_' {
			return false
		}
		rest = rest[1:]
		digits := 0
		for digits < len(rest) && '0' <= rest[digits] && rest[digits] <= '9' {
			digits++
		}
		if digits == 0 || digits > 1 && rest[0] == '0' {
			return false
		}
		n, err := strconv.Atoi(rest[:digits])
		if err != nil { // out of range
			return false
		}
		nums[i], rest = n, rest[digits:]
	}
	return rest == ""
}

// BlockManager stores blocks for one executor. A map task's output is one
// entry, its blocks indexed by reduce id (Spark's sort shuffle: one data
// file plus an index per map task); every other block is one entry under
// its id. A canonical shuffle block id has one owner: the stored map output
// whose blocks it names, else the entry stored under it.
type BlockManager struct {
	execID string

	mu      sync.RWMutex
	blocks  map[BlockID][]byte
	outputs map[mapOutput][][]byte
	bytes   int64
	parts   int // blocks held in outputs
	named   int // keys of blocks that are canonical shuffle block ids
}

// mapOutput names one map task's output.
type mapOutput struct{ shuffleID, mapID int }

// NewBlockManager creates an empty block manager owned by execID.
func NewBlockManager(execID string) *BlockManager {
	return &BlockManager{execID: execID, blocks: make(map[BlockID][]byte), outputs: make(map[mapOutput][][]byte)}
}

// Put stores data under id, replacing any previous value: a canonical
// shuffle block id that names a block of a stored map output replaces that
// block.
func (bm *BlockManager) Put(id BlockID, data []byte) {
	s, m, r, canonical := ParseShuffleBlockID(string(id))
	bm.mu.Lock()
	defer bm.mu.Unlock()
	if canonical {
		key := mapOutput{s, m}
		if parts, ok := bm.outputs[key]; ok && r < len(parts) {
			// A copy: PutMapOutput's caller may still read the slice it gave.
			parts = append([][]byte(nil), parts...)
			bm.bytes += int64(len(data) - len(parts[r]))
			parts[r] = data
			bm.outputs[key] = parts
			return
		}
	}
	if old, ok := bm.blocks[id]; ok {
		bm.bytes -= int64(len(old))
	} else if canonical {
		bm.named++
	}
	bm.blocks[id] = data
	bm.bytes += int64(len(data))
}

// PutMapOutput stores map task mapID's output of shuffle shuffleID, parts[r]
// being the block for reducer r (an empty block included), replacing any
// previous output of that task and any block Put under one of its blocks'
// ids. The store keeps parts itself: neither it nor its blocks may change
// afterwards.
func (bm *BlockManager) PutMapOutput(shuffleID, mapID int, parts [][]byte) {
	key := mapOutput{shuffleID, mapID}
	bm.mu.Lock()
	defer bm.mu.Unlock()
	if old, ok := bm.outputs[key]; ok {
		bm.forget(old)
	}
	bm.outputs[key] = parts
	bm.parts += len(parts)
	for r, p := range parts {
		bm.bytes += int64(len(p))
		if bm.named > 0 {
			bm.drop(ShuffleBlockID(shuffleID, mapID, r))
		}
	}
}

// drop deletes the block stored under id, if any, reporting whether it
// existed. Callers hold mu.
func (bm *BlockManager) drop(id BlockID) bool {
	d, ok := bm.blocks[id]
	if !ok {
		return false
	}
	bm.bytes -= int64(len(d))
	delete(bm.blocks, id)
	if _, _, _, canonical := ParseShuffleBlockID(string(id)); canonical {
		bm.named--
	}
	return true
}

// forget takes a map output's blocks out of the accounting. Callers hold mu.
func (bm *BlockManager) forget(parts [][]byte) {
	bm.parts -= len(parts)
	for _, p := range parts {
		bm.bytes -= int64(len(p))
	}
}

// MapOutputBlock returns reducer reduceID's block of map task mapID's output
// of shuffle shuffleID; ok reports whether it exists. The slice is shared —
// callers must not mutate it.
func (bm *BlockManager) MapOutputBlock(shuffleID, mapID, reduceID int) ([]byte, bool) {
	bm.mu.RLock()
	defer bm.mu.RUnlock()
	parts, ok := bm.outputs[mapOutput{shuffleID, mapID}]
	if !ok || reduceID < 0 || reduceID >= len(parts) {
		return nil, false
	}
	return parts[reduceID], true
}

// Get returns the block's bytes; ok reports whether it exists. The slice
// is shared — callers must not mutate it. A canonical shuffle block id names
// a block of a stored map output, or else the one stored under that id.
func (bm *BlockManager) Get(id BlockID) ([]byte, bool) {
	if s, m, r, ok := ParseShuffleBlockID(string(id)); ok {
		if d, ok := bm.MapOutputBlock(s, m, r); ok {
			return d, true
		}
	}
	bm.mu.RLock()
	defer bm.mu.RUnlock()
	d, ok := bm.blocks[id]
	return d, ok
}

// Remove deletes the block stored under id, reporting whether it existed. A
// map output's blocks go only with their shuffle (RemoveShuffle).
func (bm *BlockManager) Remove(id BlockID) bool {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	return bm.drop(id)
}

// RemoveShuffle deletes every block of the given shuffle, map outputs and
// blocks stored under its shuffle block ids alike, returning the number of
// blocks removed.
func (bm *BlockManager) RemoveShuffle(shuffleID int) int {
	prefix := fmt.Sprintf("shuffle_%d_", shuffleID)
	bm.mu.Lock()
	defer bm.mu.Unlock()
	n := 0
	for key, parts := range bm.outputs {
		if key.shuffleID == shuffleID {
			bm.forget(parts)
			delete(bm.outputs, key)
			n += len(parts)
		}
	}
	for id := range bm.blocks {
		if len(id) >= len(prefix) && string(id[:len(prefix)]) == prefix {
			bm.drop(id)
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

// BlockCount returns the number of resident blocks, a map output counting
// one per reducer.
func (bm *BlockManager) BlockCount() int {
	bm.mu.RLock()
	defer bm.mu.RUnlock()
	return len(bm.blocks) + bm.parts
}
