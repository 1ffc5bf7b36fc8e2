package shuffle

import (
	"fmt"

	"mpi4spark/internal/bytebuf"
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

// MergedEntry is one map task's contribution inside a merged run. Sum is
// the CRC32C of Data, verified at push time and carried in the run header
// so reducers can verify each entry — including entries of a ranged
// slice (RangedMergedBlockID), whose re-encoded subset keeps the per-entry
// sums — without a second tracker round trip.
type MergedEntry struct {
	MapID int
	Sum   uint32
	Data  []byte
}

// EncodeMergedRun frames a locality-sorted merged run: an entry count
// followed by (mapID, sum, length, bytes) quads in the order given. The
// service sorts entries by map id before encoding so reducers consume one
// sequential run instead of per-map random reads. The run is allocated
// once, at its exact size.
func EncodeMergedRun(entries []MergedEntry) []byte {
	n := 4
	for _, e := range entries {
		n += 4 + 4 + 8 + len(e.Data)
	}
	buf := bytebuf.New(n)
	buf.WriteUint32(uint32(len(entries)))
	for _, e := range entries {
		buf.WriteUint32(uint32(e.MapID))
		buf.WriteUint32(e.Sum)
		buf.WriteUint64(uint64(len(e.Data)))
		buf.WriteBytes(e.Data)
	}
	return buf.Readable() // exactly n bytes were written: the buffer never grew
}

// DecodeMergedRun parses a merged-run frame. Entry data aliases the frame
// (each entry cap-limited to itself): the frame is immutable from here on
// and an entry kept by the caller pins it.
func DecodeMergedRun(data []byte) ([]MergedEntry, error) {
	buf := bytebuf.Wrap(data)
	count, err := buf.ReadUint32()
	if err != nil {
		return nil, err
	}
	// Each entry occupies at least its 16-byte header; reject counts the
	// frame cannot possibly hold before allocating.
	if int64(count)*16 > int64(buf.ReadableBytes()) {
		return nil, fmt.Errorf("shuffle: merged run claims %d entries in %d bytes", count, buf.ReadableBytes())
	}
	entries := make([]MergedEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		var e MergedEntry
		id, err := buf.ReadUint32()
		if err != nil {
			return nil, err
		}
		e.MapID = int(id)
		if e.Sum, err = buf.ReadUint32(); err != nil {
			return nil, err
		}
		n, err := buf.ReadUint64()
		if err != nil {
			return nil, err
		}
		if e.Data, err = buf.ReadSlice(int(n)); err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	if buf.ReadableBytes() != 0 {
		return nil, fmt.Errorf("shuffle: %d trailing bytes after merged run", buf.ReadableBytes())
	}
	return entries, nil
}
