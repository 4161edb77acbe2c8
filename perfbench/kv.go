package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"smartmem/internal/durable"
	"smartmem/internal/kvstore"
	"smartmem/internal/mem"
	"smartmem/internal/tmem"
)

// The served store matches smartmem-kvd -debug: a memory-only sharded
// backend of 4 KiB data pages, one lock stripe per GOMAXPROCS.
const (
	kvPageSize = 4096
	kvPages    = 131072
	kvObjPages = 16 // pages per object; a batch request covers one object
	kvVM       = 1
)

// kvSpec sizes a kv workload. Every client is a closed loop: it sends its
// next request only after the previous response, for a fixed request
// count, over its own connection and its own key range of one persistent
// pool.
type kvSpec struct {
	durable  bool    // serve through durable.Store on a DirStore journal
	batch    bool    // 16-page put-batch/get-batch/flush-object instead of single-page ops
	frames   int     // backend capacity in pages, raised when the clients need more
	keys     int     // pages per client, prefilled during set-up
	requests int     // requests per client per round
	rate     float64 // requests per second offered across all clients; 0 = back to back
}

var (
	kvPageSpec = kvSpec{frames: kvPages, keys: 16384, requests: 30000}
	// kv-durable offers 2000 requests/s in total, the rate
	// `make load-smoke-durable` drives the journaled kvd at. The pace only
	// bounds the journal's write bandwidth: back to back the clients wrote
	// ~300 MB/s and measured the shared disk, whose drift made rounds vary
	// 2.5× between runs minutes apart. Time spent waiting for the next
	// send is not in any figure (see kvClient.busy). Its one client (it
	// runs on one P) journals ~74 MB a round, past the 64 MiB at which the
	// log compacts.
	kvDurableSpec = kvSpec{durable: true, batch: true, frames: kvPages, keys: 4096, requests: 2600, rate: 2000}
)

func kvPageRound(env *roundEnv) (*round, error)    { return kvPageSpec.round(env) }
func kvDurableRound(env *roundEnv) (*round, error) { return kvDurableSpec.round(env) }

// Op kinds, in the 45/45/10 put/get/flush mix.
const (
	opPut = iota
	opGet
	opFlush
)

var opNames = [...]string{"put", "get", "flush"}

// kvOp is one request: a kind and a page (single-page ops) or an object
// (batch ops), relative to the client's range.
type kvOp struct {
	kind uint8
	obj  uint32
	idx  uint8
}

// kvOps returns client's request sequence; the same seed gives the same
// sequence. Seeds vary the order of the kinds and the keys, not the amount
// of work: the mix is exactly 45/45/10 put/get/flush, every flush drops a
// key that holds data, and every tenth get asks for a flushed key (when
// there is one), so the number of get hits is the same for every seed.
// A key is an object (batch ops) or a page (single-page ops) of the
// client's range.
func (s kvSpec) kvOps(seed uint64, client int) []kvOp {
	rng := rand.New(rand.NewPCG(seed, uint64(client)+1))
	kinds := make([]uint8, s.requests)
	for i := range kinds {
		switch {
		case i < s.requests*45/100:
			kinds[i] = opPut
		case i < s.requests*90/100:
			kinds[i] = opGet
		default:
			kinds[i] = opFlush
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	nkeys := s.keys
	if s.batch {
		nkeys = s.keys / kvObjPages
	}
	held, flushed := newKeySet(nkeys), newKeySet(0) // every key is prefilled
	ops := make([]kvOp, s.requests)
	gets := 0
	for i, kind := range kinds {
		var k int
		switch kind {
		case opPut:
			k = rng.IntN(nkeys)
			flushed.remove(k)
			held.add(k)
		case opFlush:
			if held.len() == 0 {
				k = flushed.pick(rng)
				break
			}
			k = held.pick(rng)
			held.remove(k)
			flushed.add(k)
		case opGet:
			gets++
			if gets%10 == 0 && flushed.len() > 0 {
				k = flushed.pick(rng)
			} else {
				k = held.pick(rng)
			}
		}
		op := kvOp{kind: kind, obj: uint32(k)}
		if !s.batch {
			op.obj, op.idx = uint32(k/kvObjPages), uint8(k%kvObjPages)
		}
		ops[i] = op
	}
	return ops
}

// keySet is a set of keys with uniform random picks.
type keySet struct {
	keys []int
	pos  map[int]int // key → index in keys
}

// newKeySet returns the set {0, …, n-1}.
func newKeySet(n int) *keySet {
	s := &keySet{keys: make([]int, n), pos: make(map[int]int, n)}
	for k := range n {
		s.keys[k], s.pos[k] = k, k
	}
	return s
}

func (s *keySet) len() int                { return len(s.keys) }
func (s *keySet) pick(rng *rand.Rand) int { return s.keys[rng.IntN(len(s.keys))] }

func (s *keySet) add(k int) {
	if _, ok := s.pos[k]; !ok {
		s.pos[k] = len(s.keys)
		s.keys = append(s.keys, k)
	}
}

func (s *keySet) remove(k int) {
	i, ok := s.pos[k]
	if !ok {
		return
	}
	last := s.keys[len(s.keys)-1]
	s.keys[i], s.pos[last] = last, i
	s.keys = s.keys[:len(s.keys)-1]
	delete(s.pos, k)
}

func (s kvSpec) pagesPerOp() int {
	if s.batch {
		return kvObjPages
	}
	return 1
}

// backendPages is the backend's capacity: the spec's frames, or twice the
// clients' persistent pages when there are more clients than the frames
// hold (the pages spread unevenly over the lock stripes).
func (s kvSpec) backendPages(nc int) int { return max(s.frames, 2*nc*s.keys) }

func newKVBackend(pages int) *tmem.Backend {
	return tmem.NewBackendOpts(mem.Pages(pages), tmem.Options{
		Shards:   runtime.GOMAXPROCS(0),
		NewStore: func() tmem.PageStore { return tmem.NewDataStore(kvPageSize) },
	})
}

// round sets up the server (store, prefill, journal recovery, listener,
// client connections), runs every client's request sequence, and checks
// every response. The unit of work is one request; pages are the pages the
// requests put, got or flushed, and hits are the pages gets returned. The
// round's wall time is the clients' busy time: each client's summed
// send-to-response latencies, averaged over the clients, so a paced
// client's wait for its next send counts nowhere.
func (s kvSpec) round(env *roundEnv) (*round, error) {
	rd := &round{counts: map[string]float64{}, layer: map[string]float64{}}
	tr := env.tr
	nc := runtime.GOMAXPROCS(0)

	start := time.Now()
	clients := make([]*kvClient, nc)
	for i := range clients {
		clients[i] = newKVClient(s, i, env.seed, tr)
	}
	var store kvstore.Store
	var dlog *durable.Log
	var wal *walBlob
	var pool tmem.PoolID
	journal := filepath.Join(env.dir, "journal")
	if s.durable {
		if tr != nil {
			wal = &walBlob{tr: tr}
		}
		var err error
		if store, dlog, pool, err = recoveredStore(journal, env, wal, clients, rd); err != nil {
			return nil, err
		}
	} else {
		backend := newKVBackend(s.backendPages(nc))
		pool = backend.NewPool(kvVM, tmem.Persistent)
		if err := prefill(backend, pool, clients); err != nil {
			return nil, err
		}
		store = backend
	}
	if dlog != nil {
		defer dlog.Close()
	}
	var ts *tracedStore
	if tr != nil {
		ts = &tracedStore{Store: store, tr: tr, clients: clients, objs: s.keys / kvObjPages, owners: s.durable}
		store = ts
		if wal != nil {
			wal.owners = &ts.owner
		}
	}
	if env.wrapStore != nil {
		store = env.wrapStore(store)
	}

	srv := kvstore.NewServerStore(store)
	metrics := kvstore.NewMetrics()
	srv.SetMetrics(metrics)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	var stopOnce sync.Once
	stop := func() {
		stopOnce.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for _, c := range clients {
				c.close()
			}
			_ = srv.Shutdown(ctx) // force-closes stragglers after the timeout; nothing to recover
			<-served
		})
	}
	defer stop()
	for _, c := range clients {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		c.conn = kvstore.NewClient(conn, kvPageSize)
		c.pool = pool
	}
	rd.setup = time.Since(start)

	// Timed phase.
	var walBefore durable.Stats
	if dlog != nil {
		walBefore = dlog.Stats()
	}
	srvBefore := serverTotals(metrics)
	if tr != nil {
		if err := tr.startProfile(); err != nil {
			return nil, err
		}
	}
	var wg sync.WaitGroup
	var first atomic.Bool
	go0 := make(chan struct{})
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(go0, nc)
			if first.CompareAndSwap(false, true) {
				worst := 1.0
				for _, o := range clients {
					worst = min(worst, float64(o.done.Load())/float64(len(o.ops)))
				}
				rd.layer["bench.client_balance"] = worst
			}
		}()
	}
	t0 := time.Now()
	close(go0)
	wg.Wait()
	t1 := time.Now()
	var busy time.Duration
	for _, c := range clients {
		busy += c.busy
	}
	rd.wall = busy / time.Duration(nc)
	if tr != nil {
		tr.stopProfile()
	}
	srvAfter := serverTotals(metrics)

	var putPages, hits float64
	for _, c := range clients {
		rd.attempted += int64(len(c.ops))
		rd.failed += c.failed
		rd.problems = append(rd.problems, c.problems...)
		rd.lats = append(rd.lats, c.lats...)
		rd.pages += float64(c.pages)
		hits += float64(c.hits)
		putPages += float64(c.puts * s.pagesPerOp())
		rd.counts[fmt.Sprintf("client%d.pages", c.id)] = float64(c.pages)
		rd.counts[fmt.Sprintf("client%d.get_hits", c.id)] = float64(c.hits)
	}
	rd.hitsPerS = hits / rd.wall.Seconds()
	if dlog != nil {
		st := dlog.Stats()
		rd.counts["wal_appended_bytes"] = float64(st.AppendedBytes - walBefore.AppendedBytes)
		rd.layer["wal.appended_mb"] = float64(st.AppendedBytes-walBefore.AppendedBytes) / (1 << 20)
		if st.Errors > 0 {
			rd.problems = append(rd.problems, fmt.Sprintf("journal reported %d I/O errors", st.Errors))
		}
	}
	// Shutdown waits for the connection handlers, so their store spans
	// are safe to read after it.
	stop()
	if tr != nil {
		ladderMetrics(rd, clients, ts, srvAfter.sub(srvBefore), nc)
		if wal != nil {
			wal.metrics(rd, clients, tr.at(t0), tr.at(t1), putPages*kvPageSize)
		}
		for _, c := range clients {
			tr.adopt(c.reqSpans)
			tr.adopt(c.storeSpans)
		}
	}
	if s.durable {
		// Crash-style close, then check the journal outside the timing.
		if err := dlog.Close(); err != nil {
			return nil, err
		}
		lost, err := checkJournal(journal, clients)
		if err != nil {
			return nil, err
		}
		if lost > 0 {
			rd.failed += lost
			rd.problems = append(rd.problems, fmt.Sprintf("%d pages wrong after reopening the journal", lost))
		}
	}
	return rd, nil
}

// recoveredStore builds kv-durable's store the way a restarted daemon
// finds it: the pages are prefilled through a first daemon lifetime whose
// log is closed the way a crash leaves it (no clean marker), then a fresh
// backend recovers them from the journal. The restart (Open + Recover) is
// reported as durable.recover_s.
func recoveredStore(journal string, env *roundEnv, wal *walBlob, clients []*kvClient, rd *round) (kvstore.Store, *durable.Log, tmem.PoolID, error) {
	log1, err := openJournal(journal, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	pages := clients[0].spec.backendPages(len(clients))
	first := durable.NewStore(newKVBackend(pages), log1)
	pool := first.NewPool(kvVM, tmem.Persistent)
	err = prefill(first, pool, clients)
	if cerr := log1.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, 0, err
	}

	t := time.Now()
	dlog, err := openJournal(journal, wal)
	if err != nil {
		return nil, nil, 0, err
	}
	store := durable.NewStore(newKVBackend(pages), dlog)
	rs, err := store.Recover()
	rd.layer["durable.recover_s"] = time.Since(t).Seconds()
	if err != nil {
		dlog.Close()
		return nil, nil, 0, err
	}
	if want := uint64(len(clients) * clients[0].spec.keys); rs.Pages != want || rs.Dropped != 0 {
		rd.problems = append(rd.problems, fmt.Sprintf("recovered %d pages (%d dropped), want %d", rs.Pages, rs.Dropped, want))
	}
	return store, dlog, pool, nil
}

// openJournal opens the durable log with smartmem-kvd's defaults
// (-fsync interval, default segment and compaction sizes).
func openJournal(dir string, wal *walBlob) (*durable.Log, error) {
	ds, err := durable.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	var blob durable.BlobStore = ds
	if wal != nil {
		wal.BlobStore = ds
		blob = wal
	}
	return durable.Open(durable.Options{Blob: blob, PageSize: kvPageSize, Fsync: durable.FsyncInterval})
}

// batchStore is the part of a store prefill needs.
type batchStore interface {
	PutBatch(keys []tmem.Key, datas [][]byte, sts []tmem.Status)
}

// prefill stores version 1 of every client's pages.
func prefill(st batchStore, pool tmem.PoolID, clients []*kvClient) error {
	const chunk = 256
	keys := make([]tmem.Key, 0, chunk)
	datas := make([][]byte, 0, chunk)
	sts := make([]tmem.Status, chunk)
	flush := func() error {
		st.PutBatch(keys, datas, sts[:len(keys)])
		for i, s := range sts[:len(keys)] {
			if s != tmem.STmem {
				return fmt.Errorf("prefill put %v: status %v", keys[i], s)
			}
		}
		keys, datas = keys[:0], datas[:0]
		return nil
	}
	for _, c := range clients {
		for p := range c.ver {
			c.ver[p] = 1
			keys = append(keys, c.key(pool, p))
			datas = append(datas, c.makePage(make([]byte, kvPageSize), p, 1))
			if len(keys) == chunk {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if len(keys) > 0 {
		return flush()
	}
	return nil
}

// checkJournal reopens the journal and checks every client's pages against
// their last acknowledged state; it returns the number of wrong pages.
func checkJournal(dir string, clients []*kvClient) (int64, error) {
	log, err := openJournal(dir, nil)
	if err != nil {
		return 0, err
	}
	defer log.Close()
	var wrong int64
	buf := make([]byte, kvPageSize)
	for _, c := range clients {
		for p, v := range c.ver {
			ok := log.Get(c.key(c.pool, p), buf)
			if ok != (v > 0) || (ok && !c.pageOK(buf, p, v)) {
				wrong++
			}
		}
	}
	return wrong, nil
}

// --- the load generator ---

// kvClient is one closed-loop connection of the load generator.
type kvClient struct {
	id   int
	spec kvSpec
	conn *kvstore.Client
	pool tmem.PoolID
	ops  []kvOp
	ver  []uint32 // last acknowledged version per page; 0 = absent
	tail []byte   // page filler after the stamp, fixed per client

	bufs [kvObjPages][]byte // request pages
	keys [kvObjPages]tmem.Key
	sts  [kvObjPages]tmem.Status
	next uint32 // next put version
	t0   time.Time
	busy time.Duration // summed send-to-response latencies

	done     atomic.Int64
	lats     []int64
	failed   int64
	problems []string
	pages    int64
	hits     int64
	puts     int

	// tracing
	tr         *tracer
	curReq     atomic.Uint64 // span id of the request in flight
	reqSpans   []span        // written by the client goroutine
	storeSpans []span        // written by the connection's server goroutine
}

func newKVClient(s kvSpec, id int, seed uint64, tr *tracer) *kvClient {
	c := &kvClient{
		id: id, spec: s, tr: tr,
		ops:  s.kvOps(seed, id),
		ver:  make([]uint32, s.keys),
		tail: make([]byte, kvPageSize-16),
		lats: make([]int64, 0, s.requests),
		next: 2,
	}
	rng := rand.New(rand.NewPCG(seed, uint64(id)+1<<32))
	for i := range c.tail {
		c.tail[i] = byte(rng.Uint32())
	}
	for i := range c.bufs {
		c.bufs[i] = make([]byte, kvPageSize)
	}
	return c
}

func (c *kvClient) close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

// key maps the client's page p to its wire key: clients own disjoint
// object ranges of the pool.
func (c *kvClient) key(pool tmem.PoolID, p int) tmem.Key {
	obj := c.id*(c.spec.keys/kvObjPages) + p/kvObjPages
	return tmem.Key{Pool: pool, Object: tmem.ObjectID(obj), Index: tmem.PageIndex(p % kvObjPages)}
}

// makePage fills dst with page p's content at version v: a stamp of the
// page's key and version, then the client's filler.
func (c *kvClient) makePage(dst []byte, p int, v uint32) []byte {
	binary.LittleEndian.PutUint32(dst[0:], 0x534d4243) // "SMBC"
	binary.LittleEndian.PutUint32(dst[4:], uint32(c.id))
	binary.LittleEndian.PutUint32(dst[8:], uint32(p))
	binary.LittleEndian.PutUint32(dst[12:], v)
	copy(dst[16:], c.tail)
	return dst
}

// pageOK reports whether data is page p at version v.
func (c *kvClient) pageOK(data []byte, p int, v uint32) bool {
	return len(data) == kvPageSize &&
		binary.LittleEndian.Uint32(data[0:]) == 0x534d4243 &&
		binary.LittleEndian.Uint32(data[4:]) == uint32(c.id) &&
		binary.LittleEndian.Uint32(data[8:]) == uint32(p) &&
		binary.LittleEndian.Uint32(data[12:]) == v &&
		string(data[kvPageSize-64:]) == string(c.tail[len(c.tail)-64:])
}

func (c *kvClient) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// run issues the client's request sequence once start closes. A paced
// client sends each request no sooner than its share of the spec's rate
// allows after the previous send; a late request goes at once, without
// catching up the ones before it.
func (c *kvClient) run(start <-chan struct{}, nc int) {
	<-start
	var gap time.Duration
	if c.spec.rate > 0 {
		gap = time.Duration(float64(nc) / c.spec.rate * float64(time.Second))
	}
	for i, op := range c.ops {
		if gap > 0 && i > 0 {
			time.Sleep(time.Until(c.t0.Add(gap)))
		}
		var err error
		if c.spec.batch {
			err = c.batchOp(op)
		} else {
			err = c.pageOp(op)
		}
		c.done.Add(1)
		if err != nil {
			c.fail("request %d: %v", i, err)
			c.failed += int64(len(c.ops) - i - 1)
			return
		}
	}
}

// begin marks the start of a request's wire call; end records its
// latency (and its "req" span in traced rounds).
func (c *kvClient) begin() {
	if c.tr != nil {
		c.curReq.Store(c.tr.id())
	}
	c.t0 = time.Now()
}

func (c *kvClient) end(kind uint8) {
	t := time.Now()
	d := t.Sub(c.t0)
	c.lats = append(c.lats, int64(d))
	c.busy += d
	if c.tr != nil {
		c.reqSpans = append(c.reqSpans, span{ID: c.curReq.Load(), Name: "req." + opNames[kind], Start: c.tr.at(c.t0), End: c.tr.at(t)})
	}
}

// pageOp issues one single-page request and checks its response.
func (c *kvClient) pageOp(op kvOp) error {
	p := int(op.obj)*kvObjPages + int(op.idx)
	key := c.key(c.pool, p)
	c.pages++
	switch op.kind {
	case opPut:
		v := c.next
		c.next++
		page := c.makePage(c.bufs[0], p, v)
		c.begin()
		st, err := c.conn.Put(key, page)
		c.end(op.kind)
		if err != nil {
			return err
		}
		c.puts++
		if st != tmem.STmem {
			c.fail("put %v: status %v", key, st)
			return nil
		}
		c.ver[p] = v
	case opGet:
		c.begin()
		st, data, err := c.conn.Get(key)
		c.end(op.kind)
		if err != nil {
			return err
		}
		c.checkGet(p, st == tmem.STmem, data)
	case opFlush:
		c.begin()
		_, err := c.conn.FlushPage(key)
		c.end(op.kind)
		if err != nil {
			return err
		}
		c.ver[p] = 0
	}
	return nil
}

// batchOp issues one 16-page request over object op.obj.
func (c *kvClient) batchOp(op kvOp) error {
	base := int(op.obj) * kvObjPages
	for i := range c.keys {
		c.keys[i] = c.key(c.pool, base+i)
	}
	c.pages += kvObjPages
	switch op.kind {
	case opPut:
		v := c.next
		c.next++
		datas := c.bufs[:]
		for i := range datas {
			c.makePage(datas[i], base+i, v)
		}
		c.begin()
		err := c.conn.PutBatch(c.keys[:], datas, c.sts[:])
		c.end(op.kind)
		if err != nil {
			return err
		}
		c.puts++
		for i, st := range c.sts {
			if st != tmem.STmem {
				c.fail("put-batch %v: status %v", c.keys[i], st)
				continue
			}
			c.ver[base+i] = v
		}
	case opGet:
		c.begin()
		err := c.conn.GetBatch(c.keys[:], c.bufs[:], c.sts[:])
		c.end(op.kind)
		if err != nil {
			return err
		}
		for i, st := range c.sts {
			c.checkGet(base+i, st == tmem.STmem, c.bufs[i])
		}
	case opFlush:
		c.begin()
		_, err := c.conn.FlushObject(c.pool, c.keys[0].Object)
		c.end(op.kind)
		if err != nil {
			return err
		}
		for i := range c.keys {
			c.ver[base+i] = 0
		}
	}
	return nil
}

// checkGet checks a get of page p: a page whose last acknowledged op was
// a put must come back with its key and version stamp, a flushed page
// must miss.
func (c *kvClient) checkGet(p int, hit bool, data []byte) {
	v := c.ver[p]
	switch {
	case v == 0 && hit:
		c.fail("get of flushed page %d hit", p)
	case v > 0 && !hit:
		c.fail("get of page %d (version %d) missed", p, v)
	case v > 0 && !c.pageOK(data, p, v):
		c.fail("get of page %d returned wrong data (want version %d)", p, v)
	case hit:
		c.hits++
	}
}

// --- server-side totals and the wire ladder ---

// srvTotals sums the server's per-op latency histograms.
type srvTotals struct{ sum, count uint64 }

func serverTotals(m *kvstore.Metrics) srvTotals {
	var t srvTotals
	for _, op := range kvstore.Ops() {
		h := m.OpHistogram(op)
		t.sum += h.Sum()
		t.count += h.Count()
	}
	return t
}

func (a srvTotals) sub(b srvTotals) srvTotals { return srvTotals{a.sum - b.sum, a.count - b.count} }

// ladderMetrics fills the wire and store rungs. Means are used so the
// rungs add up: wire.req_us_mean = wire.rtt_us_mean +
// server.encode_us_mean + store.op_us_mean, where the server-side mean
// (frame read to response enqueued) comes from kvstore.Metrics.
func ladderMetrics(rd *round, clients []*kvClient, ts *tracedStore, srv srvTotals, nc int) {
	var reqs, stores, all []int64
	var byKind [3][]int64
	for _, c := range clients {
		for i, s := range c.reqSpans {
			reqs = append(reqs, s.dur())
			byKind[c.ops[i].kind] = append(byKind[c.ops[i].kind], s.dur())
		}
		for _, s := range c.storeSpans {
			stores = append(stores, s.dur())
		}
		all = append(all, c.lats...)
	}
	l := rd.layer
	reqMean := meanInt64(reqs) / 1e3
	storeMean := meanInt64(stores) / 1e3
	srvMean := ratio(float64(srv.sum), float64(srv.count)) / 1e3
	l["wire.requests"] = float64(len(reqs))
	l["wire.req_us_mean"] = reqMean
	l["wire.rtt_us_mean"] = reqMean - srvMean
	l["server.encode_us_mean"] = srvMean - storeMean
	l["store.op_us_mean"] = storeMean
	for _, name := range []string{"wire.rtt_us_mean", "server.encode_us_mean", "store.op_us_mean"} {
		if l[name] < 0 {
			rd.problems = append(rd.problems, fmt.Sprintf("negative ladder rung %s = %.3f us", name, l[name]))
		}
	}
	if srv.count != uint64(len(reqs)) || len(stores) != len(reqs) {
		rd.problems = append(rd.problems, fmt.Sprintf("ladder counts disagree: %d requests, %d served, %d store calls",
			len(reqs), srv.count, len(stores)))
	}
	for k, lats := range byKind {
		slices.Sort(lats)
		l["wire."+opNames[k]+"_us_p50"] = float64(quantile(lats, 0.5)) / 1e3
	}
	slices.Sort(all)
	l["wire.lat_p999_us"] = float64(quantile(all, 0.999)) / 1e3
	var busy float64
	for _, d := range stores {
		busy += float64(d)
	}
	l["store.busy_frac"] = ratio(busy, float64(rd.wall)*float64(nc))
	slices.Sort(stores)
	l["store.op_us_p99"] = float64(quantile(stores, 0.99)) / 1e3
	l["store.get_hit_ratio"] = ratio(float64(ts.getHits.Load()), float64(ts.gets.Load()))
}

// tracedStore wraps the served kvstore.Store: each call records a "store"
// span whose parent is the request in flight on the owning client's
// connection (clients own disjoint object ranges, so the key names the
// client). With owners set it also maps the serving goroutine to the
// store span, so journal writes can name the request that caused them.
type tracedStore struct {
	kvstore.Store
	tr      *tracer
	clients []*kvClient
	objs    int // objects per client
	owners  bool
	owner   sync.Map // goroutine id → store span id

	gets, getHits atomic.Int64
}

func (s *tracedStore) call(obj tmem.ObjectID, f func()) {
	c := s.clients[min(int(obj)/s.objs, len(s.clients)-1)]
	id := s.tr.id()
	var g uint64
	if s.owners {
		g = goid()
		s.owner.Store(g, id)
	}
	start := s.tr.now()
	f()
	end := s.tr.now()
	if s.owners {
		s.owner.Delete(g)
	}
	c.storeSpans = append(c.storeSpans, span{ID: id, Parent: c.curReq.Load(), Name: "store", Start: start, End: end})
}

func (s *tracedStore) Put(key tmem.Key, data []byte) (st tmem.Status) {
	s.call(key.Object, func() { st = s.Store.Put(key, data) })
	return st
}

func (s *tracedStore) Get(key tmem.Key, dst []byte) (st tmem.Status) {
	s.call(key.Object, func() { st = s.Store.Get(key, dst) })
	s.gets.Add(1)
	if st == tmem.STmem {
		s.getHits.Add(1)
	}
	return st
}

func (s *tracedStore) FlushPage(key tmem.Key) (st tmem.Status) {
	s.call(key.Object, func() { st = s.Store.FlushPage(key) })
	return st
}

func (s *tracedStore) FlushObject(pool tmem.PoolID, object tmem.ObjectID) (n mem.Pages, st tmem.Status) {
	s.call(object, func() { n, st = s.Store.FlushObject(pool, object) })
	return n, st
}

func (s *tracedStore) PutBatch(keys []tmem.Key, datas [][]byte, sts []tmem.Status) {
	s.call(keys[0].Object, func() { s.Store.PutBatch(keys, datas, sts) })
}

func (s *tracedStore) GetBatch(keys []tmem.Key, dsts [][]byte, sts []tmem.Status) {
	s.call(keys[0].Object, func() { s.Store.GetBatch(keys, dsts, sts) })
	s.gets.Add(int64(len(sts)))
	for _, st := range sts {
		if st == tmem.STmem {
			s.getHits.Add(1)
		}
	}
}
