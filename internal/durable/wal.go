package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"smartmem/internal/hdr"
	"smartmem/internal/tmem"
)

// WAL record format. Every mutation of the durable mirror is one framed,
// checksummed record:
//
//	[u32 payload len][u32 crc32c(payload)][payload = u8 op | body]
//
// all integers big-endian, matching the kvstore wire convention. Bodies:
//
//	opPut         key(16) | u32 data len | data
//	opFlushPage   key(16)
//	opFlushObject u32 pool | u64 object
//	opNewPool     u32 pool | i64 vm | u8 kind
//	opDropPool    u32 pool
//
// Records are appended to segment blobs named wal/<seq, 16 hex>.log and a
// segment is sealed (never written again) once it crosses the configured
// size. A reopened log always starts a fresh segment, so a torn tail in
// the previous segment can never be followed by valid records.
const (
	opPut         byte = 1
	opFlushPage   byte = 2
	opFlushObject byte = 3
	opNewPool     byte = 4
	opDropPool    byte = 5
)

const (
	recHeaderLen = 8
	keyWireLen   = 16
	// maxRecordLen bounds a payload during replay: anything larger than a
	// maximal put record is corruption, not data, and must not drive a
	// giant allocation.
	maxRecordLen = 1<<20 + 64
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	errWriterClosed = errors.New("durable: wal writer closed")
	// errTruncated: the buffer ends mid-record (torn tail candidate).
	errTruncated = errors.New("durable: truncated record")
	// errCorrupt: the record is structurally invalid or fails its checksum.
	errCorrupt = errors.New("durable: corrupt record")
)

// beginRecord reserves a record's [len][crc] header at the end of dst and
// appends its op byte. The caller appends the rest of the payload straight
// after it and seals the record with endRecord, so a page is copied into
// the record buffer once and checksummed once.
func beginRecord(dst []byte, op byte) (buf []byte, start int) {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0, op), len(dst)
}

// endRecord fills in the header of the record that begins at buf[start]
// and runs to the end of buf.
func endRecord(buf []byte, start int) []byte {
	payload := buf[start+recHeaderLen:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

func appendKey(dst []byte, key tmem.Key) []byte { return key.AppendWire(dst) }

// record is one decoded WAL record; data aliases the scanned buffer.
type record struct {
	op     byte
	key    tmem.Key
	data   []byte
	pool   tmem.PoolID
	object tmem.ObjectID
	vm     tmem.VMID
	kind   tmem.PoolKind
}

// readRecord decodes the record starting at buf[off:], returning it and
// the offset of the next record. errTruncated means the buffer ran out
// mid-record; errCorrupt means the bytes cannot be a record at all.
func readRecord(buf []byte, off int) (record, int, error) {
	var r record
	if len(buf)-off < recHeaderLen {
		return r, off, errTruncated
	}
	plen := int(binary.BigEndian.Uint32(buf[off:]))
	crc := binary.BigEndian.Uint32(buf[off+4:])
	if plen < 1 || plen > maxRecordLen {
		return r, off, errCorrupt
	}
	if len(buf)-off-recHeaderLen < plen {
		return r, off, errTruncated
	}
	payload := buf[off+recHeaderLen : off+recHeaderLen+plen]
	if crc32.Checksum(payload, crcTable) != crc {
		return r, off, errCorrupt
	}
	next := off + recHeaderLen + plen
	r.op = payload[0]
	body := payload[1:]
	switch r.op {
	case opPut:
		if len(body) < keyWireLen+4 {
			return r, off, errCorrupt
		}
		key, err := tmem.KeyFromWire(body[:keyWireLen])
		if err != nil {
			return r, off, errCorrupt
		}
		dlen := int(binary.BigEndian.Uint32(body[keyWireLen:]))
		if len(body) != keyWireLen+4+dlen {
			return r, off, errCorrupt
		}
		r.key = key
		r.data = body[keyWireLen+4:]
	case opFlushPage:
		if len(body) != keyWireLen {
			return r, off, errCorrupt
		}
		key, err := tmem.KeyFromWire(body)
		if err != nil {
			return r, off, errCorrupt
		}
		r.key = key
	case opFlushObject:
		if len(body) != 12 {
			return r, off, errCorrupt
		}
		r.pool = tmem.PoolID(binary.BigEndian.Uint32(body))
		r.object = tmem.ObjectID(binary.BigEndian.Uint64(body[4:]))
	case opNewPool:
		if len(body) != 13 {
			return r, off, errCorrupt
		}
		r.pool = tmem.PoolID(binary.BigEndian.Uint32(body))
		r.vm = tmem.VMID(binary.BigEndian.Uint64(body[4:]))
		r.kind = tmem.PoolKind(body[12])
		if r.kind != tmem.Persistent && r.kind != tmem.Ephemeral {
			return r, off, errCorrupt
		}
	case opDropPool:
		if len(body) != 4 {
			return r, off, errCorrupt
		}
		r.pool = tmem.PoolID(binary.BigEndian.Uint32(body))
	default:
		return r, off, errCorrupt
	}
	return r, next, nil
}

// --- record builders: each appends one framed record to dst ---

// maxPutRecord is the framed size of a put record carrying a full page.
func maxPutRecord(pageSize int) int { return recHeaderLen + 1 + keyWireLen + 4 + pageSize }

func putRecord(dst []byte, key tmem.Key, data []byte) []byte {
	dst, start := beginRecord(dst, opPut)
	dst = appendKey(dst, key)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(data)))
	return endRecord(append(dst, data...), start)
}

func flushPageRecord(dst []byte, key tmem.Key) []byte {
	dst, start := beginRecord(dst, opFlushPage)
	return endRecord(appendKey(dst, key), start)
}

func flushObjectRecord(dst []byte, pool tmem.PoolID, object tmem.ObjectID) []byte {
	dst, start := beginRecord(dst, opFlushObject)
	dst = binary.BigEndian.AppendUint32(dst, uint32(pool))
	return endRecord(binary.BigEndian.AppendUint64(dst, uint64(object)), start)
}

func newPoolRecord(dst []byte, pool tmem.PoolID, vm tmem.VMID, kind tmem.PoolKind) []byte {
	dst, start := beginRecord(dst, opNewPool)
	dst = binary.BigEndian.AppendUint32(dst, uint32(pool))
	dst = binary.BigEndian.AppendUint64(dst, uint64(vm))
	return endRecord(append(dst, byte(kind)), start)
}

func dropPoolRecord(dst []byte, pool tmem.PoolID) []byte {
	dst, start := beginRecord(dst, opDropPool)
	return endRecord(binary.BigEndian.AppendUint32(dst, uint32(pool)), start)
}

// --- segment naming ---

const walPrefix = "wal/"

func segKey(seq uint64) string { return fmt.Sprintf("wal/%016x.log", seq) }

// segSeq parses a segment key back to its sequence number.
func segSeq(key string) (uint64, bool) {
	name, ok := strings.CutPrefix(key, walPrefix)
	if !ok {
		return 0, false
	}
	name, ok = strings.CutSuffix(name, ".log")
	if !ok || len(name) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(name, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the store's WAL segment sequence numbers, ascending.
func listSegments(blob BlobStore) ([]uint64, error) {
	keys, err := blob.List(walPrefix)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, k := range keys {
		if seq, ok := segSeq(k); ok {
			seqs = append(seqs, seq)
		}
	}
	return seqs, nil
}

// --- writer ---

// walWriter appends framed records to the active segment, rotating at the
// configured size. Appends serialize under mu and never fsync: fsync runs
// outside mu with leader-based group commit. The first caller to need
// durability becomes the leader and syncs once for every record appended
// so far; concurrent committers piggy-back on that pass instead of issuing
// their own.
//
// A rotation under the always/interval policies parks the sealed segment's
// appender on the sealed list instead of syncing it. Every sync pass
// (leader, interval ticker, close) first syncs and closes the parked
// segments oldest first, then syncs the active one, so a pass covers every
// record appended before it began.
type walWriter struct {
	blob     BlobStore
	segBytes int64
	// parkSealed keeps sealed segments open until a sync pass covers them.
	// Without it (FsyncOff, where nothing syncs) rotation closes them.
	parkSealed bool

	mu       sync.Mutex
	app      Appender
	sealed   []Appender // sealed, not yet synced segments, oldest first
	failed   error      // sticky: a sealed segment failed to sync or close
	seq      uint64     // active segment sequence number
	size     int64      // bytes appended to the active segment
	nextRec  uint64     // records appended over the writer's lifetime
	segments uint64     // segments ever opened
	bytes    uint64     // total bytes appended

	// group-commit state
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedRec uint64 // highest record number known durable
	syncBusy  bool   // a sync pass is in flight
	fsyncs    uint64
}

// newWALWriter opens a writer on a fresh segment with the given sequence.
func newWALWriter(blob BlobStore, startSeq uint64, segBytes int64, parkSealed bool) (*walWriter, error) {
	w := &walWriter{blob: blob, segBytes: segBytes, parkSealed: parkSealed, seq: startSeq}
	w.syncCond = sync.NewCond(&w.syncMu)
	app, err := blob.Append(segKey(startSeq))
	if err != nil {
		return nil, err
	}
	w.app = app
	w.segments = 1
	return w, nil
}

// append writes nrecs framed records in one blob write and returns the
// last record's number for syncTo. Rotation happens before the write when
// the active segment is already full, so a write never spans segments.
func (w *walWriter) append(framed []byte, nrecs uint64) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	if w.app == nil {
		return 0, errWriterClosed
	}
	if w.size > 0 && w.size+int64(len(framed)) > w.segBytes {
		if err := w.rotateLocked(w.seq + 1); err != nil {
			return 0, err
		}
	}
	if _, err := w.app.Write(framed); err != nil {
		return 0, err
	}
	w.size += int64(len(framed))
	w.bytes += uint64(len(framed))
	w.nextRec += nrecs
	return w.nextRec, nil
}

// rotateLocked seals the active segment and opens seq as the new one.
func (w *walWriter) rotateLocked(seq uint64) error {
	if w.app != nil {
		if w.parkSealed {
			w.sealed = append(w.sealed, w.app)
		} else if err := w.app.Close(); err != nil {
			w.app = nil
			return err
		}
	}
	app, err := w.blob.Append(segKey(seq))
	if err != nil {
		w.app = nil
		return err
	}
	w.app = app
	w.seq = seq
	w.size = 0
	w.segments++
	return nil
}

// forceRotate seals the active segment (even if empty writes happened) and
// returns the new active sequence — the compaction cut point: every record
// appended after forceRotate returns lands in a segment >= the result.
func (w *walWriter) forceRotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	if w.app == nil {
		return 0, errWriterClosed
	}
	if err := w.rotateLocked(w.seq + 1); err != nil {
		return 0, err
	}
	return w.seq, nil
}

// lead waits until record rec is durable or no sync pass is in flight.
// In the second case it claims the next pass and returns true; the caller
// runs it and ends it with unlead.
func (w *walWriter) lead(rec uint64) bool {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	for w.syncBusy && w.syncedRec < rec {
		w.syncCond.Wait()
	}
	if w.syncedRec >= rec {
		return false
	}
	w.syncBusy = true
	return true
}

// unlead ends a sync pass of n fsyncs; when it succeeded, every record up
// to top is durable.
func (w *walWriter) unlead(top, n uint64, err error) {
	w.syncMu.Lock()
	w.fsyncs += n
	if err == nil && top > w.syncedRec {
		w.syncedRec = top
	}
	w.syncBusy = false
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
}

// pass is one sync pass, run by the leader. It syncs and closes the
// parked sealed segments oldest first, then syncs the active one (and
// closes it too when closing). Success makes every record appended before
// the pass began durable; lat receives each fsync's latency.
func (w *walWriter) pass(lat *hdr.Histogram, closing bool) error {
	w.mu.Lock()
	sealed, app, top, err := w.sealed, w.app, w.nextRec, w.failed
	w.sealed = nil
	if closing {
		w.app = nil
	}
	w.mu.Unlock()
	if err == nil && app == nil && !closing {
		// Closed (or broken by a failed rotation): nothing can vouch for
		// the records this caller waits on.
		err = errWriterClosed
	}
	var n uint64
	for _, a := range sealed {
		if err != nil {
			a.Close()
			continue
		}
		err = timedSync(a, lat)
		n++
		if cerr := a.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			// Sticky: this segment's records never reached stable
			// storage, so no later pass may report them durable.
			err = fmt.Errorf("durable: sync sealed segment: %w", err)
			w.mu.Lock()
			w.failed = err
			w.mu.Unlock()
		}
	}
	if app != nil {
		if err == nil {
			err = timedSync(app, lat)
			n++
		}
		if closing {
			if cerr := app.Close(); err == nil {
				err = cerr
			}
		}
	}
	w.unlead(top, n, err)
	return err
}

// timedSync syncs a and records the fsync's latency in lat.
func timedSync(a Appender, lat *hdr.Histogram) error {
	start := time.Now()
	err := a.Sync()
	lat.Record(int64(time.Since(start)))
	return err
}

// syncTo blocks until record rec is durable, running at most one sync
// pass per waiting cohort (leader-based group commit).
func (w *walWriter) syncTo(rec uint64, lat *hdr.Histogram) error {
	if !w.lead(rec) {
		return nil
	}
	return w.pass(lat, false)
}

// sync makes everything appended so far durable.
func (w *walWriter) sync(lat *hdr.Histogram) error {
	w.mu.Lock()
	top := w.nextRec
	w.mu.Unlock()
	if top == 0 {
		return nil
	}
	return w.syncTo(top, lat)
}

// close waits out any sync pass in flight, then syncs and closes every
// segment still open. Records appended later are refused.
func (w *walWriter) close(lat *hdr.Histogram) error {
	w.lead(math.MaxUint64)
	return w.pass(lat, true)
}

// counters returns a consistent snapshot of the writer's statistics.
func (w *walWriter) counters() (appends, bytes, segments uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextRec, w.bytes, w.segments
}

func (w *walWriter) fsyncCount() uint64 {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.fsyncs
}
