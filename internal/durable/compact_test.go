package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"smartmem/internal/tmem"
)

// fixedSnapshotLog journals a fixed, deterministic state — three pools
// created out of id order, pages of every length from 0 to a full page put
// in a scrambled order, overwrites and object flushes — and returns it
// with its expected pages. The snapshot writer is exercised on it with
// slabs small enough that the state spans dozens of them.
func fixedSnapshotLog(t *testing.T, blob BlobStore) (*Log, map[tmem.Key][]byte) {
	t.Helper()
	opts := testOpts(blob)
	opts.SlabBytes = 700
	l := mustOpen(t, opts)
	pools := []tmem.PoolID{7, 2, 5}
	for _, p := range pools {
		if err := l.NewPool(p, tmem.VMID(p)+1, tmem.Persistent); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[tmem.Key][]byte)
	x := uint32(12345)
	for i := 0; i < 300; i++ {
		x = x*1103515245 + 12345
		pool := pools[x%3]
		k := key(pool, tmem.ObjectID(x>>8%11), tmem.PageIndex(x>>16%13))
		d := page(byte(x >> 24))[:int(x>>4)%(testPageSize+1)]
		if err := l.Put(k, d); err != nil {
			t.Fatal(err)
		}
		want[k] = d
		if i%37 == 0 {
			obj := tmem.ObjectID(x >> 12 % 11)
			if _, err := l.FlushObject(pool, obj); err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if k.Pool == pool && k.Object == obj {
					delete(want, k)
				}
			}
		}
	}
	return l, want
}

// TestSnapshotSlabsByteIdentical pins the streamed snapshot of a fixed
// state to the bytes the earlier build-everything-then-put writer
// produced (slab names, lengths, contents and the manifest, as one
// digest), and checks that the slabs decode to exactly the captured state
// in sorted order with every slab but the last closed at the first record
// that took it to SlabBytes.
func TestSnapshotSlabsByteIdentical(t *testing.T) {
	blob := NewMemStore()
	l, want := fixedSnapshotLog(t, blob)
	defer l.Close()
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	keys, err := blob.List(snapshotPrefix)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, k := range keys {
		b, err := blob.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", k, len(b))
		h.Write(b)
	}
	const pinned = "40f36183444d191cd868189625efa2bda4fe4b4183e0616f38fe21b177296095"
	if got := hex.EncodeToString(h.Sum(nil)); got != pinned {
		t.Errorf("snapshot digest %s, want %s (%d blobs)", got, pinned, len(keys))
	}

	seq, mf, ok, err := latestManifest(blob)
	if err != nil || !ok {
		t.Fatalf("latestManifest = %v, %v", ok, err)
	}
	if mf.Slabs < 10 || mf.Pools != 3 || mf.Pages != uint64(len(want)) {
		t.Fatalf("manifest %+v, want >= 10 slabs, 3 pools, %d pages", mf, len(want))
	}
	var prev tmem.Key
	var pools []tmem.PoolID
	got := make(map[tmem.Key][]byte)
	for i := 0; i < mf.Slabs; i++ {
		buf, err := blob.Get(slabKey(seq, i))
		if err != nil {
			t.Fatal(err)
		}
		for off, last := 0, 0; off < len(buf); {
			rec, next, err := readRecord(buf, off)
			if err != nil {
				t.Fatalf("slab %d offset %d: %v", i, off, err)
			}
			last, off = off, next
			if i < mf.Slabs-1 && off == len(buf) && (len(buf) < 700 || last >= 700) {
				t.Fatalf("slab %d: %d bytes, last record at %d: not cut at the first record reaching 700", i, len(buf), last)
			}
			switch rec.op {
			case opNewPool:
				if len(got) > 0 || (len(pools) > 0 && rec.pool <= pools[len(pools)-1]) {
					t.Fatalf("pool %d out of order", rec.pool)
				}
				pools = append(pools, rec.pool)
			case opPut:
				k := rec.key
				if len(got) > 0 && (k.Pool < prev.Pool || k.Pool == prev.Pool &&
					(k.Object < prev.Object || k.Object == prev.Object && k.Index <= prev.Index)) {
					t.Fatalf("page %v after %v: not in sorted order", k, prev)
				}
				prev = k
				got[k] = rec.data
			default:
				t.Fatalf("op %d in a snapshot", rec.op)
			}
		}
	}
	if len(pools) != 3 || len(got) != len(want) {
		t.Fatalf("decoded %d pools, %d pages; want 3, %d", len(pools), len(got), len(want))
	}
	checkSameMirror(t, got, want)
}

// checkSameMirror asserts two page sets are equal, page lengths included.
func checkSameMirror(t *testing.T, got, want map[tmem.Key][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d pages, want %d", len(got), len(want))
	}
	for k, d := range want {
		if g, ok := got[k]; !ok || string(g) != string(d) {
			t.Fatalf("page %v: got %d bytes (present %v), want %d", k, len(g), ok, len(d))
		}
	}
}

// mirrorPages copies out every page the log holds.
func mirrorPages(l *Log) map[tmem.Key][]byte {
	out := make(map[tmem.Key][]byte)
	l.RangePages(func(k tmem.Key, d []byte) bool {
		out[k] = d
		return true
	})
	return out
}

// putFaultStore fails every Put whose key fail selects: a blob outage in
// the middle of a snapshot.
type putFaultStore struct {
	BlobStore
	mu   sync.Mutex
	fail func(key string) bool
}

func (f *putFaultStore) Put(key string, data []byte) error {
	f.mu.Lock()
	fail := f.fail != nil && f.fail(key)
	f.mu.Unlock()
	if fail {
		return errors.New("simulated slab put failure")
	}
	return f.BlobStore.Put(key, data)
}

// TestSnapshotFailedSlabPutKeepsPrevious: a slab Put failing mid-snapshot
// aborts the compaction before its MANIFEST, and a reopen falls back to
// the previous snapshot plus the unpruned WAL, losing nothing.
func TestSnapshotFailedSlabPutKeepsPrevious(t *testing.T) {
	mem := NewMemStore()
	fs := &putFaultStore{BlobStore: mem}
	l, want := fixedSnapshotLog(t, fs)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	first, _, _, _ := latestManifest(mem)
	for i := 0; i < 20; i++ {
		k := key(2, 100, tmem.PageIndex(i))
		want[k] = page(byte(i))
		if err := l.Put(k, want[k]); err != nil {
			t.Fatal(err)
		}
	}
	fs.mu.Lock()
	fs.fail = func(key string) bool { return strings.HasSuffix(key, "/0003.slab") }
	fs.mu.Unlock()
	if err := l.Compact(); err == nil {
		t.Fatal("Compact succeeded through a failed slab Put")
	}
	if st := l.Stats(); st.Errors == 0 || st.Compactions != 1 {
		t.Fatalf("failed compaction miscounted: %+v", st)
	}
	snaps, _ := mem.List(snapshotPrefix)
	var partial bool
	for _, k := range snaps {
		if seq, _ := snapshotSeq(k); seq != first {
			partial = true
			if strings.HasSuffix(k, "/"+manifestName) {
				t.Fatalf("failed snapshot wrote %s", k)
			}
		}
	}
	if !partial {
		t.Fatal("failed snapshot left no slabs: the fault did not hit mid-snapshot")
	}
	l.Close()

	l2 := mustOpen(t, testOpts(mem))
	defer l2.Close()
	if ri := l2.Recovery(); !ri.SnapshotLoaded || ri.SnapshotSeq != first || ri.WALRecords != 20 {
		t.Fatalf("recovery %+v, want snapshot %d + 20 WAL records", ri, first)
	}
	checkSameMirror(t, mirrorPages(l2), want)
}

// syncLogStore records, per WAL segment, the bytes written, the bytes the
// last Sync covered and whether the appender was closed, plus the order
// of every Sync.
type syncLogStore struct {
	BlobStore
	mu      sync.Mutex
	written map[string]int
	synced  map[string]int
	closed  map[string]bool
	order   []string
}

func newSyncLogStore() *syncLogStore {
	return &syncLogStore{BlobStore: NewMemStore(), written: map[string]int{},
		synced: map[string]int{}, closed: map[string]bool{}}
}

func (s *syncLogStore) Append(key string) (Appender, error) {
	a, err := s.BlobStore.Append(key)
	if err != nil {
		return nil, err
	}
	return &syncLogAppender{Appender: a, s: s, key: key}, nil
}

// unsynced lists the segments holding bytes no Sync has covered.
func (s *syncLogStore) unsynced() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k, n := range s.written {
		if s.synced[k] < n {
			out = append(out, k)
		}
	}
	return out
}

type syncLogAppender struct {
	Appender
	s   *syncLogStore
	key string
}

func (a *syncLogAppender) Write(p []byte) (int, error) {
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	if a.s.closed[a.key] {
		return 0, errors.New("write after close")
	}
	a.s.written[a.key] += len(p)
	return a.Appender.Write(p)
}

func (a *syncLogAppender) Sync() error {
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	a.s.synced[a.key] = a.s.written[a.key]
	a.s.order = append(a.s.order, a.key)
	return a.Appender.Sync()
}

func (a *syncLogAppender) Close() error {
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	a.s.closed[a.key] = true
	return a.Appender.Close()
}

// TestRotationDoesNotSync: under FsyncInterval (with a ticker too slow to
// fire) appends and rotations — including the compaction cut — issue no
// fsync at all; Close then syncs and closes every sealed segment, oldest
// first, before the active one.
func TestRotationDoesNotSync(t *testing.T) {
	s := newSyncLogStore()
	opts := testOpts(s)
	opts.Fsync = FsyncInterval
	opts.FsyncEvery = time.Hour
	opts.SegmentBytes = 1024
	l := mustOpen(t, opts)
	seedLog(t, l, 0, 64)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	seedLog(t, l, 1, 16)
	s.mu.Lock()
	segs, syncs := len(s.written), len(s.order)
	s.mu.Unlock()
	if segs < 10 {
		t.Fatalf("only %d segments written: rotation not exercised", segs)
	}
	if syncs != 0 {
		t.Fatalf("%d fsyncs ran inside append or rotation", syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if u := s.unsynced(); len(u) > 0 {
		t.Fatalf("Close left segments unsynced: %v", u)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.written {
		if !s.closed[k] {
			t.Fatalf("Close left %s open", k)
		}
	}
	for i := 1; i < len(s.order); i++ {
		if s.order[i] <= s.order[i-1] {
			t.Fatalf("Close synced %s after %s", s.order[i], s.order[i-1])
		}
	}
	if st := l.Stats(); st.Fsyncs != uint64(len(s.order)) {
		t.Fatalf("Stats.Fsyncs = %d, want the %d syncs issued", st.Fsyncs, len(s.order))
	}
}

// TestAlwaysSyncsSealedBeforeCommit: under FsyncAlways every segment that
// holds a record — the sealed ones rotation parked as well as the active
// one — is on stable storage before the commit that wrote it returns, and
// sync passes visit segments oldest first.
func TestAlwaysSyncsSealedBeforeCommit(t *testing.T) {
	s := newSyncLogStore()
	opts := testOpts(s)
	opts.Fsync = FsyncAlways
	opts.SegmentBytes = 1024
	l := mustOpen(t, opts)
	defer l.Close()
	if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		var err error
		switch i % 4 {
		case 3:
			err = l.Compact()
		case 2:
			err = l.PutBatch([]tmem.Key{key(0, 1, tmem.PageIndex(i)), key(0, 2, tmem.PageIndex(i))},
				[][]byte{page(byte(i)), page(byte(i + 1))})
		default:
			err = l.Put(key(0, 0, tmem.PageIndex(i)), page(byte(i)))
		}
		if err != nil {
			t.Fatal(err)
		}
		if u := s.unsynced(); len(u) > 0 {
			t.Fatalf("step %d returned with unsynced segments %v", i, u)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.written) < 10 {
		t.Fatalf("only %d segments written: rotation not exercised", len(s.written))
	}
	for i := 1; i < len(s.order); i++ {
		if s.order[i] < s.order[i-1] {
			t.Fatalf("synced %s after the newer %s", s.order[i], s.order[i-1])
		}
	}
}

// TestConcurrentCommitsAcrossRotations drives group commit from several
// goroutines over small segments (run it under -race): every commit
// succeeds, Close leaves no segment unsynced, and a reopen recovers every
// page.
func TestConcurrentCommitsAcrossRotations(t *testing.T) {
	s := newSyncLogStore()
	opts := testOpts(s)
	opts.Fsync = FsyncAlways
	opts.SegmentBytes = 2048
	l := mustOpen(t, opts)
	if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
		t.Fatal(err)
	}
	const workers, puts = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				if err := l.Put(key(0, tmem.ObjectID(w), tmem.PageIndex(i)), page(byte(w+i))); err != nil {
					t.Errorf("worker %d put %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if u := s.unsynced(); len(u) > 0 {
		t.Fatalf("Close left segments unsynced: %v", u)
	}
	want := make(map[tmem.Key][]byte)
	for w := 0; w < workers; w++ {
		for i := 0; i < puts; i++ {
			want[key(0, tmem.ObjectID(w), tmem.PageIndex(i))] = page(byte(w + i))
		}
	}
	l2 := mustOpen(t, testOpts(s))
	defer l2.Close()
	checkPages(t, l2, want)
}

// TestTimings: Open, compaction and both fsync paths are timed, and the
// timings stay out of Stats.
func TestTimings(t *testing.T) {
	opts := testOpts(NewMemStore())
	opts.Fsync = FsyncAlways
	l := mustOpen(t, opts)
	seedLog(t, l, 0, 8)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	tm := l.Timings()
	if tm.Open <= 0 {
		t.Errorf("Open duration %v", tm.Open)
	}
	if tm.Compactions != 2 || tm.CompactLast <= 0 || tm.CompactTotal < tm.CompactLast {
		t.Errorf("compaction timings %d / total %v / last %v", tm.Compactions, tm.CompactTotal, tm.CompactLast)
	}
	if tm.CommitSyncs.Count == 0 || tm.BackgroundSyncs.Count != 0 {
		t.Errorf("before Close: %d commit, %d background syncs", tm.CommitSyncs.Count, tm.BackgroundSyncs.Count)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := l.Timings().BackgroundSyncs.Count; n == 0 {
		t.Error("Close's fsync not timed")
	}
}
