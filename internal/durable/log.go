package durable

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"smartmem/internal/hdr"
	"smartmem/internal/tmem"
)

// FsyncPolicy selects when WAL appends are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval syncs on a wall-clock ticker (default 100ms): a
	// machine crash loses at most the last interval, a process kill loses
	// nothing (appends hit the kernel synchronously).
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways group-commits every mutation: the call returns only
	// after its record is fsynced. Concurrent writers share one fsync.
	FsyncAlways
	// FsyncOff syncs only on Close or an explicit Sync. The
	// deterministic simulator mode: no timers, no fsync counters.
	FsyncOff
)

// ParseFsync maps the -fsync flag spelling to a policy.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch s {
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval or off)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncInterval:
		return "interval"
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// Options configures a Log.
type Options struct {
	// Blob is the persistence backend. Required.
	Blob BlobStore
	// PageSize bounds a page record's data length. Required.
	PageSize int
	// SegmentBytes seals a WAL segment once it crosses this size.
	// Default 4 MiB.
	SegmentBytes int64
	// CompactBytes triggers a compaction after this many WAL bytes since
	// the last snapshot. Default 64 MiB; <0 disables automatic compaction
	// (explicit Compact still works).
	CompactBytes int64
	// SlabBytes splits snapshots into blobs of roughly this size.
	// Default 1 MiB.
	SlabBytes int64
	// Fsync is the commit durability policy.
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period. Default 100ms.
	FsyncEvery time.Duration
	// InlineCompact runs compactions synchronously inside the mutating
	// call instead of on a background goroutine — the deterministic
	// simulator mode (no goroutine scheduling in the counters).
	InlineCompact bool
}

func (o Options) withDefaults() (Options, error) {
	if o.Blob == nil {
		return o, errors.New("durable: Options.Blob is required")
	}
	if o.PageSize <= 0 {
		return o, errors.New("durable: Options.PageSize must be positive")
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 64 << 20
	}
	if o.SlabBytes <= 0 {
		o.SlabBytes = 1 << 20
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	return o, nil
}

// Stats are a Log's cumulative counters plus its live-state gauges.
type Stats struct {
	Appends       uint64 // WAL records appended
	AppendedBytes uint64 // WAL bytes appended
	Fsyncs        uint64 // fsyncs issued by sync passes (group commit)
	Segments      uint64 // WAL segments opened over the log's lifetime
	Compactions   uint64 // snapshots taken
	SnapshotPages uint64 // pages in the latest snapshot
	Pools         uint64 // live pools in the mirror
	PagesLive     uint64 // live pages in the mirror
	BytesLive     uint64 // live page bytes in the mirror
	Errors        uint64 // blob I/O failures (append, sync or snapshot)
}

// Add folds o into s (cluster aggregation; gauges sum across nodes).
func (s *Stats) Add(o Stats) {
	s.Appends += o.Appends
	s.AppendedBytes += o.AppendedBytes
	s.Fsyncs += o.Fsyncs
	s.Segments += o.Segments
	s.Compactions += o.Compactions
	s.SnapshotPages += o.SnapshotPages
	s.Pools += o.Pools
	s.PagesLive += o.PagesLive
	s.BytesLive += o.BytesLive
	s.Errors += o.Errors
}

// Timings are a Log's wall-clock measurements: fsync latency and the time
// spent compacting and opening. They are kept apart from Stats, which
// holds only counts a deterministic run reproduces exactly. Durations in
// the histogram snapshots are nanoseconds.
type Timings struct {
	// CommitSyncs are the fsyncs a caller waited on: the group commits of
	// FsyncAlways and explicit Sync calls. BackgroundSyncs are those of
	// the FsyncInterval ticker and of Close.
	CommitSyncs     hdr.Snapshot
	BackgroundSyncs hdr.Snapshot
	// Compactions is the number of completed compactions; CompactTotal and
	// CompactLast are their summed and most recent durations.
	Compactions  uint64
	CompactTotal time.Duration
	CompactLast  time.Duration
	// Open is how long Open took: snapshot load, WAL replay and repair.
	Open time.Duration
}

// RecoveryInfo describes what Open found and replayed.
type RecoveryInfo struct {
	// CleanShutdown: a CLEAN marker matched the newest snapshot, so the
	// WAL scan was skipped entirely (warm restart).
	CleanShutdown bool
	// SnapshotLoaded / SnapshotSeq / SnapshotPages describe the snapshot
	// the state was seeded from, if any.
	SnapshotLoaded bool
	SnapshotSeq    uint64
	SnapshotPages  uint64
	// WALSegments / WALRecords count the replayed tail.
	WALSegments int
	WALRecords  uint64
	// TornTail: the final segment ended mid-record; the partial record
	// was discarded (tolerated — a crash mid-append).
	TornTail bool
	// CorruptRecords: a checksum or structural failure before the final
	// segment's tail. Replay stops at the failure (prefix consistency)
	// and this counts the segments' remaining bytes as lost.
	CorruptRecords uint64
	// Pools / PagesLive are the recovered mirror gauges.
	Pools     int
	PagesLive uint64
}

type poolMeta struct {
	vm   tmem.VMID
	kind tmem.PoolKind
}

type objKey struct {
	pool   tmem.PoolID
	object tmem.ObjectID
}

// PoolInfo is one recovered pool, for replaying into a backend.
type PoolInfo struct {
	ID   tmem.PoolID
	VM   tmem.VMID
	Kind tmem.PoolKind
}

var errClosed = errors.New("durable: log closed")

// Log is the durable journal: an in-memory mirror of every live
// persistent page, a segmented WAL recording its mutations, and periodic
// slab snapshots that let the WAL be pruned. All methods are safe for
// concurrent use.
//
// Page slices stored in the mirror are immutable once inserted (puts
// always copy), so snapshots and RangePages can share them without
// holding the lock during blob I/O.
type Log struct {
	opts Options
	w    *walWriter

	mu           sync.Mutex
	pools        map[tmem.PoolID]poolMeta
	objects      map[objKey]map[tmem.PageIndex][]byte
	pagesLive    uint64
	bytesLive    uint64
	walSinceSnap int64
	closed       bool

	compactMu     sync.Mutex    // serializes compactions
	compactions   uint64        // under mu
	compactTotal  time.Duration // under mu
	compactLast   time.Duration // under mu
	snapshotSeq   uint64        // under mu
	snapshotPages uint64        // under mu
	errors        uint64        // under mu

	recovery RecoveryInfo
	openDur  time.Duration

	// fsync latencies; hdr histograms record without locks.
	commitSyncs, backgroundSyncs hdr.Histogram

	scratch []byte // framed-record build buffer, under mu

	stop      chan struct{}
	compactCh chan struct{}
	bg        sync.WaitGroup
	stopOnce  sync.Once
}

// Open loads (or initializes) a log from the blob store: newest complete
// snapshot first, then the WAL tail, tolerating a torn final record. A
// CLEAN marker from a graceful shutdown skips the WAL scan; the marker is
// consumed either way, so the next boot after a crash replays properly.
func Open(opts Options) (*Log, error) {
	start := time.Now()
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	l := &Log{
		opts:      opts,
		pools:     make(map[tmem.PoolID]poolMeta),
		objects:   make(map[objKey]map[tmem.PageIndex][]byte),
		stop:      make(chan struct{}),
		compactCh: make(chan struct{}, 1),
	}
	blob := opts.Blob

	marker, haveMarker, err := readCleanMarker(blob)
	if err != nil {
		return nil, err
	}
	mfSeq, mf, haveMf, err := latestManifest(blob)
	if err != nil {
		return nil, err
	}
	segs, err := listSegments(blob)
	if err != nil {
		return nil, err
	}

	if haveMf {
		if err := l.loadSnapshot(mfSeq, mf); err != nil {
			return nil, err
		}
		l.recovery.SnapshotLoaded = true
		l.recovery.SnapshotSeq = mfSeq
		l.recovery.SnapshotPages = mf.Pages
		l.snapshotSeq = mfSeq
		l.snapshotPages = mf.Pages
	}
	if haveMarker && haveMf && marker.Snapshot == mfSeq {
		// Warm restart: the marker vouches that the snapshot captured
		// everything — no WAL bytes to replay.
		l.recovery.CleanShutdown = true
	} else {
		resume := uint64(0)
		if haveMf {
			resume = mf.WALResume
		}
		l.replayTail(blob, segs, resume)
	}
	blob.Delete(cleanKey)

	l.recovery.Pools = len(l.pools)
	l.recovery.PagesLive = l.pagesLive

	// Always start a fresh segment: appending after a torn tail would put
	// valid records behind a broken one, where replay cannot reach them.
	startSeq := uint64(1)
	if n := len(segs); n > 0 && segs[n-1]+1 > startSeq {
		startSeq = segs[n-1] + 1
	}
	if haveMf && mfSeq+1 > startSeq {
		startSeq = mfSeq + 1
	}
	w, err := newWALWriter(blob, startSeq, opts.SegmentBytes, opts.Fsync != FsyncOff)
	if err != nil {
		return nil, err
	}
	l.w = w

	if opts.Fsync == FsyncInterval {
		l.bg.Add(1)
		go l.fsyncLoop()
	}
	if !opts.InlineCompact && opts.CompactBytes > 0 {
		l.bg.Add(1)
		go l.compactLoop()
	}
	l.openDur = time.Since(start)
	return l, nil
}

// loadSnapshot seeds the mirror from a snapshot's slabs. Snapshots are
// written atomically (manifest last), so any decode failure here is real
// corruption and aborts the open.
func (l *Log) loadSnapshot(seq uint64, mf manifest) error {
	for i := 0; i < mf.Slabs; i++ {
		buf, err := l.opts.Blob.Get(slabKey(seq, i))
		if err != nil {
			return fmt.Errorf("durable: snapshot %016x slab %d: %w", seq, i, err)
		}
		off := 0
		for off < len(buf) {
			rec, next, err := readRecord(buf, off)
			if err != nil {
				return fmt.Errorf("durable: snapshot %016x slab %d offset %d: %w", seq, i, off, err)
			}
			l.applyRecord(rec)
			off = next
		}
	}
	return nil
}

// replayTail replays every WAL segment with sequence >= resume, in order.
// A decode failure in the final segment is a torn tail (tolerated, replay
// of that segment stops); a failure in any earlier segment is mid-log
// corruption — replay stops entirely, keeping the applied prefix. Either
// way the recovered prefix is made authoritative on the blob store: the
// failing segment is truncated to its valid prefix and any segments after
// it are dropped, so the next boot replays exactly the state this one
// recovered and records appended after recovery stay reachable.
func (l *Log) replayTail(blob BlobStore, segs []uint64, resume uint64) {
	var tail []uint64
	for _, s := range segs {
		if s >= resume {
			tail = append(tail, s)
		}
	}
	for i, s := range tail {
		buf, err := blob.Get(segKey(s))
		if err != nil {
			// A listed segment that cannot be read is corruption unless it
			// simply vanished after listing.
			l.recovery.CorruptRecords++
			l.repairTail(blob, s, nil, 0, tail[i+1:])
			return
		}
		l.recovery.WALSegments++
		off := 0
		for off < len(buf) {
			rec, next, rerr := readRecord(buf, off)
			if rerr != nil {
				if i == len(tail)-1 {
					l.recovery.TornTail = true
				} else {
					l.recovery.CorruptRecords++
				}
				l.repairTail(blob, s, buf, off, tail[i+1:])
				return
			}
			l.applyRecord(rec)
			l.recovery.WALRecords++
			off = next
		}
	}
}

// repairTail truncates the failing segment to its replayed prefix and
// deletes every segment after it. Best-effort: a failure here only means
// the next boot re-tolerates the same damage.
func (l *Log) repairTail(blob BlobStore, seg uint64, buf []byte, validLen int, later []uint64) {
	if buf != nil {
		blob.Put(segKey(seg), buf[:validLen])
	} else {
		blob.Delete(segKey(seg))
	}
	for _, s := range later {
		blob.Delete(segKey(s))
	}
}

// applyRecord mutates the mirror with one replayed record. Replay is
// deliberately forgiving: records referencing unknown pools are skipped
// (they can only follow a tolerated loss) and never panic.
func (l *Log) applyRecord(r record) {
	switch r.op {
	case opNewPool:
		if _, ok := l.pools[r.pool]; !ok {
			l.pools[r.pool] = poolMeta{vm: r.vm, kind: r.kind}
		}
	case opDropPool:
		l.dropPoolLocked(r.pool)
	case opPut:
		if _, ok := l.pools[r.key.Pool]; !ok {
			return
		}
		if len(r.data) > l.opts.PageSize {
			return
		}
		l.storePage(r.key, r.data)
	case opFlushPage:
		l.erasePage(r.key)
	case opFlushObject:
		l.eraseObject(objKey{pool: r.pool, object: r.object})
	}
}

// --- mirror mutation helpers (caller holds mu or is in single-threaded
// recovery) ---

func (l *Log) storePage(key tmem.Key, data []byte) {
	ok := objKey{pool: key.Pool, object: key.Object}
	pages := l.objects[ok]
	if pages == nil {
		pages = make(map[tmem.PageIndex][]byte)
		l.objects[ok] = pages
	}
	if old, exists := pages[key.Index]; exists {
		l.bytesLive -= uint64(len(old))
	} else {
		l.pagesLive++
	}
	// Always a fresh copy: mirror slices are immutable (snapshots and
	// RangePages share them outside the lock).
	pages[key.Index] = append([]byte(nil), data...)
	l.bytesLive += uint64(len(data))
}

func (l *Log) erasePage(key tmem.Key) bool {
	ok := objKey{pool: key.Pool, object: key.Object}
	pages := l.objects[ok]
	old, exists := pages[key.Index]
	if !exists {
		return false
	}
	delete(pages, key.Index)
	if len(pages) == 0 {
		delete(l.objects, ok)
	}
	l.pagesLive--
	l.bytesLive -= uint64(len(old))
	return true
}

func (l *Log) eraseObject(ok objKey) int {
	pages := l.objects[ok]
	if len(pages) == 0 {
		return 0
	}
	n := len(pages)
	for _, d := range pages {
		l.bytesLive -= uint64(len(d))
	}
	l.pagesLive -= uint64(n)
	delete(l.objects, ok)
	return n
}

func (l *Log) dropPoolLocked(pool tmem.PoolID) bool {
	if _, ok := l.pools[pool]; !ok {
		return false
	}
	delete(l.pools, pool)
	for ok := range l.objects {
		if ok.pool == pool {
			l.eraseObject(ok)
		}
	}
	return true
}

// --- journaled mutations ---

// journalLocked appends nrecs framed records, built by the caller into
// l.scratch[:0], and returns the last record's number. Caller holds mu.
func (l *Log) journalLocked(framed []byte, nrecs uint64) (uint64, error) {
	l.scratch = framed // keep the grown buffer for the next call
	rec, err := l.w.append(framed, nrecs)
	if err != nil {
		l.errors++
		return 0, err
	}
	l.walSinceSnap += int64(len(framed))
	return rec, nil
}

// commit enforces the fsync policy for record rec, then triggers a
// compaction if the WAL has grown past the threshold. Called after mu is
// released.
func (l *Log) commit(rec uint64, compact bool) error {
	if l.opts.Fsync == FsyncAlways {
		if err := l.w.syncTo(rec, &l.commitSyncs); err != nil {
			l.noteError()
			return err
		}
	}
	if compact {
		l.triggerCompact()
	}
	return nil
}

func (l *Log) noteError() {
	l.mu.Lock()
	l.errors++
	l.mu.Unlock()
}

// compactDue reports whether the WAL crossed the compaction threshold;
// caller holds mu.
func (l *Log) compactDue() bool {
	return l.opts.CompactBytes > 0 && l.walSinceSnap >= l.opts.CompactBytes
}

func (l *Log) triggerCompact() {
	if l.opts.InlineCompact {
		l.Compact()
		return
	}
	select {
	case l.compactCh <- struct{}{}:
	default:
	}
}

// NewPool journals the creation of a persistent pool under its assigned
// id. Ephemeral pools are not durable and are ignored.
func (l *Log) NewPool(id tmem.PoolID, vm tmem.VMID, kind tmem.PoolKind) error {
	if kind != tmem.Persistent {
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	if _, dup := l.pools[id]; dup {
		l.mu.Unlock()
		return fmt.Errorf("durable: pool %d already journaled", id)
	}
	rec, err := l.journalLocked(newPoolRecord(l.scratch[:0], id, vm, kind), 1)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	l.pools[id] = poolMeta{vm: vm, kind: kind}
	compact := l.compactDue()
	l.mu.Unlock()
	return l.commit(rec, compact)
}

// HasPool reports whether the pool is journaled (i.e. persistent).
func (l *Log) HasPool(id tmem.PoolID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.pools[id]
	return ok
}

// DropPool journals a pool destruction and erases its pages. A pool the
// log never saw is a no-op.
func (l *Log) DropPool(id tmem.PoolID) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	if _, ok := l.pools[id]; !ok {
		l.mu.Unlock()
		return nil
	}
	rec, err := l.journalLocked(dropPoolRecord(l.scratch[:0], id), 1)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	l.dropPoolLocked(id)
	compact := l.compactDue()
	l.mu.Unlock()
	return l.commit(rec, compact)
}

// Put journals a page write and stores it in the mirror. The pool must
// have been journaled by NewPool.
func (l *Log) Put(key tmem.Key, data []byte) error {
	if len(data) > l.opts.PageSize {
		return fmt.Errorf("durable: page %v: %d bytes exceeds page size %d", key, len(data), l.opts.PageSize)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	if _, ok := l.pools[key.Pool]; !ok {
		l.mu.Unlock()
		return fmt.Errorf("durable: put into unjournaled pool %d", key.Pool)
	}
	rec, err := l.journalLocked(putRecord(l.scratch[:0], key, data), 1)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	l.storePage(key, data)
	compact := l.compactDue()
	l.mu.Unlock()
	return l.commit(rec, compact)
}

// PutBatch journals a run of page writes as one append and one commit —
// the group-commit fast path for batched overflow. All keys must belong
// to journaled pools.
func (l *Log) PutBatch(keys []tmem.Key, datas [][]byte) error {
	if len(keys) == 0 {
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	for i, key := range keys {
		if _, ok := l.pools[key.Pool]; !ok {
			l.mu.Unlock()
			return fmt.Errorf("durable: put into unjournaled pool %d", key.Pool)
		}
		if len(datas[i]) > l.opts.PageSize {
			l.mu.Unlock()
			return fmt.Errorf("durable: page %v: %d bytes exceeds page size %d", key, len(datas[i]), l.opts.PageSize)
		}
	}
	framed := l.scratch[:0]
	for i, key := range keys {
		framed = putRecord(framed, key, datas[i])
	}
	rec, err := l.journalLocked(framed, uint64(len(keys)))
	if err != nil {
		l.mu.Unlock()
		return err
	}
	for i, key := range keys {
		l.storePage(key, datas[i])
	}
	compact := l.compactDue()
	l.mu.Unlock()
	return l.commit(rec, compact)
}

// FlushPage journals a page invalidation. Pages the mirror does not hold
// are a no-op (nothing to make durable), reported via removed=false.
func (l *Log) FlushPage(key tmem.Key) (removed bool, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false, errClosed
	}
	ok := objKey{pool: key.Pool, object: key.Object}
	if _, exists := l.objects[ok][key.Index]; !exists {
		l.mu.Unlock()
		return false, nil
	}
	rec, err := l.journalLocked(flushPageRecord(l.scratch[:0], key), 1)
	if err != nil {
		l.mu.Unlock()
		return false, err
	}
	l.erasePage(key)
	compact := l.compactDue()
	l.mu.Unlock()
	return true, l.commit(rec, compact)
}

// FlushObject journals an object invalidation, returning how many pages
// the mirror dropped. Unknown objects are a no-op.
func (l *Log) FlushObject(pool tmem.PoolID, object tmem.ObjectID) (int, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, errClosed
	}
	ok := objKey{pool: pool, object: object}
	if len(l.objects[ok]) == 0 {
		l.mu.Unlock()
		return 0, nil
	}
	rec, err := l.journalLocked(flushObjectRecord(l.scratch[:0], pool, object), 1)
	if err != nil {
		l.mu.Unlock()
		return 0, err
	}
	n := l.eraseObject(ok)
	compact := l.compactDue()
	l.mu.Unlock()
	return n, l.commit(rec, compact)
}

// --- reads ---

// Get copies a mirrored page into dst (zero-filling any remainder) and
// reports whether the page exists. dst may be nil for a presence check.
func (l *Log) Get(key tmem.Key, dst []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, ok := l.objects[objKey{pool: key.Pool, object: key.Object}][key.Index]
	if !ok {
		return false
	}
	n := copy(dst, data)
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
	return true
}

// Contains reports whether the mirror holds the page.
func (l *Log) Contains(key tmem.Key) bool { return l.Get(key, nil) }

// Pools returns the journaled pools, sorted by id.
func (l *Log) Pools() []PoolInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poolsLocked()
}

// RangePages calls f for every live page in sorted key order (pool,
// object, index), stopping early if f returns false. The data slice is
// shared with the mirror and must not be mutated.
func (l *Log) RangePages(f func(key tmem.Key, data []byte) bool) {
	l.mu.Lock()
	pages := l.pagesLocked()
	l.mu.Unlock()
	// Mirror slices are immutable, so sorting and f run outside the lock.
	sortPages(pages)
	for _, p := range pages {
		if !f(p.key, p.data) {
			return
		}
	}
}

// pageRef is one live page; data is shared with the mirror.
type pageRef struct {
	key  tmem.Key
	data []byte
}

// poolsLocked lists the journaled pools, sorted by id. Caller holds mu.
func (l *Log) poolsLocked() []PoolInfo {
	out := make([]PoolInfo, 0, len(l.pools))
	for id, pm := range l.pools {
		out = append(out, PoolInfo{ID: id, VM: pm.vm, Kind: pm.kind})
	}
	slices.SortFunc(out, func(a, b PoolInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// pagesLocked lists every live page, unsorted, sharing the mirror's
// immutable page slices. Caller holds mu.
func (l *Log) pagesLocked() []pageRef {
	out := make([]pageRef, 0, l.pagesLive)
	for ok, m := range l.objects {
		for idx, d := range m {
			out = append(out, pageRef{key: tmem.Key{Pool: ok.pool, Object: ok.object, Index: idx}, data: d})
		}
	}
	return out
}

func sortPages(pages []pageRef) {
	slices.SortFunc(pages, func(a, b pageRef) int {
		if c := cmp.Compare(a.key.Pool, b.key.Pool); c != 0 {
			return c
		}
		if c := cmp.Compare(a.key.Object, b.key.Object); c != 0 {
			return c
		}
		return cmp.Compare(a.key.Index, b.key.Index)
	})
}

// PagesLive returns the live-page gauge.
func (l *Log) PagesLive() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pagesLive
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	appends, bytes, segments := l.w.counters()
	fsyncs := l.w.fsyncCount()
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:       appends,
		AppendedBytes: bytes,
		Fsyncs:        fsyncs,
		Segments:      segments,
		Compactions:   l.compactions,
		SnapshotPages: l.snapshotPages,
		Pools:         uint64(len(l.pools)),
		PagesLive:     l.pagesLive,
		BytesLive:     l.bytesLive,
		Errors:        l.errors,
	}
}

// Timings returns the log's wall-clock measurements.
func (l *Log) Timings() Timings {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Timings{
		CommitSyncs:     l.commitSyncs.Snapshot(),
		BackgroundSyncs: l.backgroundSyncs.Snapshot(),
		Compactions:     l.compactions,
		CompactTotal:    l.compactTotal,
		CompactLast:     l.compactLast,
		Open:            l.openDur,
	}
}

// Recovery returns what Open found and replayed.
func (l *Log) Recovery() RecoveryInfo { return l.recovery }

// Sync forces everything journaled so far to stable storage.
func (l *Log) Sync() error {
	if err := l.w.sync(&l.commitSyncs); err != nil {
		l.noteError()
		return err
	}
	return nil
}

// --- compaction ---

// Compact seals the active WAL segment, snapshots the live mirror and
// prunes the sealed segments and older snapshots. Mutations racing the
// snapshot land in segments at or after the cut and replay on top of it.
func (l *Log) Compact() error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	start := time.Now()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	resume, err := l.w.forceRotate()
	if err != nil {
		l.errors++
		l.mu.Unlock()
		return err
	}
	// Structure-only copy: page slices are immutable and shared.
	st := snapshotState{pools: l.poolsLocked(), pages: l.pagesLocked(), bytes: l.bytesLive}
	cut := l.walSinceSnap
	l.mu.Unlock()

	sortPages(st.pages)
	if err := writeSnapshot(l.opts.Blob, resume, st, l.opts.SlabBytes, l.opts.PageSize); err != nil {
		l.noteError()
		return err
	}
	// Prune is best-effort: stale blobs cost space, not correctness.
	dropSegmentsBefore(l.opts.Blob, resume)
	dropSnapshotsBefore(l.opts.Blob, resume)

	took := time.Since(start)
	l.mu.Lock()
	l.walSinceSnap -= cut
	l.compactions++
	l.compactTotal += took
	l.compactLast = took
	l.snapshotSeq = resume
	l.snapshotPages = uint64(len(st.pages))
	l.mu.Unlock()
	return nil
}

// --- lifecycle ---

func (l *Log) fsyncLoop() {
	defer l.bg.Done()
	t := time.NewTicker(l.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.w.sync(&l.backgroundSyncs) // errors surface through Stats on the next explicit op
		}
	}
}

func (l *Log) compactLoop() {
	defer l.bg.Done()
	for {
		select {
		case <-l.stop:
			return
		case <-l.compactCh:
			l.Compact()
		}
	}
}

func (l *Log) stopBackground() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.bg.Wait()
}

// Close stops background work, syncs and closes the WAL. The blob store
// is left exactly as a crash would: the next Open replays snapshot + WAL.
func (l *Log) Close() error {
	l.stopBackground()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	return l.w.close(&l.backgroundSyncs)
}

// CloseClean performs a graceful shutdown: a final compaction folds the
// whole state into one snapshot, a CLEAN marker vouches for it, and the
// next Open skips the WAL replay entirely (warm restart).
func (l *Log) CloseClean() error {
	l.stopBackground()
	cerr := l.Compact()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	l.closed = true
	snap := l.snapshotSeq
	l.mu.Unlock()
	werr := l.w.close(&l.backgroundSyncs)
	if cerr == nil && werr == nil {
		cerr = writeCleanMarker(l.opts.Blob, snap)
	}
	if cerr != nil {
		return cerr
	}
	return werr
}
