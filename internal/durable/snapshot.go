package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Snapshot layout. A compaction folds the live mirror into slab blobs
// under snapshot/<seq, 16 hex>/:
//
//	snapshot/<seq>/0000.slab ... NNNN.slab   records (same codec as the WAL)
//	snapshot/<seq>/MANIFEST                  JSON, written last
//
// <seq> is the WAL resume point: the snapshot plus every WAL segment with
// sequence >= <seq> reconstructs the full state. The MANIFEST is written
// after all slabs (and the blob Put is atomic), so a crash mid-snapshot
// leaves no MANIFEST and recovery simply uses the previous snapshot.
//
// CLEAN is a root-level marker a graceful shutdown writes after a final
// compaction; a boot that finds it pointing at the newest snapshot skips
// the WAL scan entirely (warm restart) and deletes the marker before
// serving, so a later crash is detected as such.

const (
	snapshotPrefix = "snapshot/"
	manifestName   = "MANIFEST"
	cleanKey       = "CLEAN"
)

type manifest struct {
	// WALResume is the first WAL segment sequence to replay on top.
	WALResume uint64 `json:"wal_resume"`
	// Slabs is the number of slab blobs in the snapshot directory.
	Slabs int `json:"slabs"`
	// Pools / Pages / Bytes describe the snapshotted state (informational).
	Pools int    `json:"pools"`
	Pages uint64 `json:"pages"`
	Bytes uint64 `json:"bytes"`
}

type cleanMarker struct {
	// Snapshot is the snapshot sequence the marker vouches for.
	Snapshot uint64 `json:"snapshot"`
}

func snapshotDir(seq uint64) string { return fmt.Sprintf("snapshot/%016x", seq) }

func slabKey(seq uint64, i int) string {
	return fmt.Sprintf("%s/%04d.slab", snapshotDir(seq), i)
}

// snapshotSeq extracts the sequence from a key under snapshot/.
func snapshotSeq(key string) (uint64, bool) {
	rest, ok := strings.CutPrefix(key, snapshotPrefix)
	if !ok {
		return 0, false
	}
	dir, _, ok := strings.Cut(rest, "/")
	if !ok || len(dir) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(dir, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// latestManifest finds the newest snapshot that has a MANIFEST (i.e. was
// completely written). Returns ok=false when no complete snapshot exists.
func latestManifest(blob BlobStore) (seq uint64, mf manifest, ok bool, err error) {
	keys, err := blob.List(snapshotPrefix)
	if err != nil {
		return 0, mf, false, err
	}
	var best uint64
	found := false
	for _, k := range keys {
		if !strings.HasSuffix(k, "/"+manifestName) {
			continue
		}
		if s, kok := snapshotSeq(k); kok && (!found || s > best) {
			best, found = s, true
		}
	}
	if !found {
		return 0, mf, false, nil
	}
	raw, err := blob.Get(snapshotDir(best) + "/" + manifestName)
	if err != nil {
		return 0, mf, false, err
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		return 0, mf, false, fmt.Errorf("durable: snapshot %016x manifest: %w", best, err)
	}
	return best, mf, true, nil
}

// snapshotState is the mirror image a compaction captures, sorted (pools
// by id, pages by pool/object/index) so identical states produce
// identical snapshots.
type snapshotState struct {
	pools []PoolInfo
	pages []pageRef
	bytes uint64
}

// writeSnapshot streams the state into slab blobs through one reused
// buffer and finally writes the manifest. Records are encoded straight
// into the buffer, and a slab is Put as soon as it holds slabBytes, so a
// compaction holds at most one slab of encoded snapshot. The buffer is
// sized so that it never grows: below slabBytes it takes one more record,
// and no record is larger than a full-page put. A failed Put returns
// before the manifest is written, leaving the snapshot incomplete.
func writeSnapshot(blob BlobStore, seq uint64, st snapshotState, slabBytes int64, pageSize int) error {
	buf := make([]byte, 0, slabBytes+int64(maxPutRecord(pageSize)))
	slabs := 0
	flush := func(min int64) error {
		if int64(len(buf)) < min || len(buf) == 0 {
			return nil
		}
		err := blob.Put(slabKey(seq, slabs), buf)
		slabs++
		buf = buf[:0]
		return err
	}
	for _, p := range st.pools {
		buf = newPoolRecord(buf, p.ID, p.VM, p.Kind)
		if err := flush(slabBytes); err != nil {
			return err
		}
	}
	for _, p := range st.pages {
		buf = putRecord(buf, p.key, p.data)
		if err := flush(slabBytes); err != nil {
			return err
		}
	}
	if err := flush(0); err != nil {
		return err
	}
	mf := manifest{
		WALResume: seq,
		Slabs:     slabs,
		Pools:     len(st.pools),
		Pages:     uint64(len(st.pages)),
		Bytes:     st.bytes,
	}
	raw, err := json.Marshal(mf)
	if err != nil {
		return err
	}
	return blob.Put(snapshotDir(seq)+"/"+manifestName, raw)
}

// dropSnapshotsBefore deletes every complete-or-partial snapshot directory
// with sequence < keep.
func dropSnapshotsBefore(blob BlobStore, keep uint64) error {
	keys, err := blob.List(snapshotPrefix)
	if err != nil {
		return err
	}
	var errs []error
	for _, k := range keys {
		if seq, ok := snapshotSeq(k); ok && seq < keep {
			if err := blob.Delete(k); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// dropSegmentsBefore deletes every WAL segment with sequence < keep.
func dropSegmentsBefore(blob BlobStore, keep uint64) error {
	seqs, err := listSegments(blob)
	if err != nil {
		return err
	}
	var errs []error
	for _, s := range seqs {
		if s < keep {
			if err := blob.Delete(segKey(s)); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// readCleanMarker loads the CLEAN marker if present.
func readCleanMarker(blob BlobStore) (cleanMarker, bool, error) {
	raw, err := blob.Get(cleanKey)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return cleanMarker{}, false, nil
		}
		return cleanMarker{}, false, err
	}
	var m cleanMarker
	if err := json.Unmarshal(raw, &m); err != nil {
		// A garbled marker is treated as absent: fall back to full replay.
		return cleanMarker{}, false, nil
	}
	return m, true, nil
}

func writeCleanMarker(blob BlobStore, snapshot uint64) error {
	raw, err := json.Marshal(cleanMarker{Snapshot: snapshot})
	if err != nil {
		return err
	}
	return blob.Put(cleanKey, raw)
}
