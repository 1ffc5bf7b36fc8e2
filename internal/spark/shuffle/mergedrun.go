package shuffle

import (
	"fmt"

	"mpi4spark/internal/spark/storage"
)

// mergedBlockPrefix distinguishes service-side merged runs from ordinary
// map-output blocks. It deliberately does not match the "shuffle_<id>_"
// prefix BlockManager.RemoveShuffle scans, so a merged run is addressed
// and evicted explicitly by the service that built it.
const mergedBlockPrefix = "shuffleMerged"

// MergedBlockID names the external shuffle service's merged run of every
// map output pushed for one reduce partition:
// "shuffleMerged_<shuffle>_<reduce>".
func MergedBlockID(shuffleID, reduceID int) storage.BlockID {
	return storage.BlockID(fmt.Sprintf("%s_%d_%d", mergedBlockPrefix, shuffleID, reduceID))
}

// ParseMergedBlockID reports whether id names a merged run and, if so, its
// shuffle and reduce partition. It accepts exactly the ids MergedBlockID
// gives non-negative arguments.
func ParseMergedBlockID(id string) (shuffleID, reduceID int, ok bool) {
	var n [2]int
	if !storage.ParseNumberedID(id, mergedBlockPrefix, n[:]) {
		return 0, 0, false
	}
	return n[0], n[1], true
}

// rangedBlockPrefix names a map-range slice of a merged run. A ranged id is
// not a merged id: after mergedBlockPrefix comes "Range", not '_'.
const rangedBlockPrefix = "shuffleMergedRange"

// RangedMergedBlockID names the subset of a merged run covering map ids in
// the half-open range [mapLo, mapHi):
// "shuffleMergedRange_<shuffle>_<reduce>_<lo>_<hi>". Split sub-tasks fetch
// these so each reads a disjoint slice of the same reduce partition.
func RangedMergedBlockID(shuffleID, reduceID, mapLo, mapHi int) storage.BlockID {
	return storage.BlockID(fmt.Sprintf("%s_%d_%d_%d_%d", rangedBlockPrefix, shuffleID, reduceID, mapLo, mapHi))
}

// ParseRangedMergedBlockID reports whether id names a ranged merged run
// and, if so, its shuffle, reduce partition, and [lo, hi) map range. It
// accepts exactly the ids RangedMergedBlockID gives non-negative arguments
// with 0 <= lo < hi.
func ParseRangedMergedBlockID(id string) (shuffleID, reduceID, mapLo, mapHi int, ok bool) {
	var n [4]int
	if !storage.ParseNumberedID(id, rangedBlockPrefix, n[:]) || n[2] >= n[3] {
		return 0, 0, 0, 0, false
	}
	return n[0], n[1], n[2], n[3], true
}

// SplitMergedRun cuts run, a merged run, into the blocks it holds: a merged
// run, whole or ranged, is its pushed blocks back to back in map-id order,
// with no frame of its own, so the reader splits it by the sizes it expects
// (MapStatus.Sizes) and verifies each piece against the CRC32C its map task
// recorded (MapStatus.Sums). Each piece aliases run, capped to itself.
//
// A run whose length is not the sum of sizes is a miss (ok false, no
// pieces): it holds a block the reader does not expect, or lacks one, and
// says nothing about its bytes. Otherwise bad is the index of the first piece
// that does not match its sum (pieces after it are nil), or -1 when
// every piece does. sizes and sums must have one entry per block; a
// negative size is a miss.
func SplitMergedRun(run []byte, sizes []int64, sums []uint32) (pieces [][]byte, bad int, ok bool) {
	if len(sums) != len(sizes) {
		return nil, -1, false
	}
	rest := int64(len(run))
	for _, n := range sizes {
		if n < 0 || n > rest {
			return nil, -1, false
		}
		rest -= n
	}
	if rest != 0 {
		return nil, -1, false
	}
	pieces = make([][]byte, len(sizes))
	off := 0
	for i, n := range sizes {
		end := off + int(n)
		pieces[i] = run[off:end:end]
		off = end
		if Checksum(pieces[i]) != sums[i] {
			return pieces, i, true
		}
	}
	return pieces, -1, true
}
