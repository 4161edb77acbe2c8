package main

import (
	"slices"
	"strings"
	"sync"
	"time"

	"smartmem/internal/durable"
)

// walBlob wraps the journal's blob store in traced kv-durable rounds. It
// records a span for every WAL append ("blob.append"), fsync
// ("blob.sync") and snapshot blob put ("blob.put"), and the compaction
// windows: from a snapshot's first slab put to its manifest put. A span
// whose goroutine is inside a traced store call is that call's child;
// the fsync and compaction goroutines' spans are background spans.
type walBlob struct {
	durable.BlobStore
	tr     *tracer
	owners *sync.Map // goroutine id → store span id

	mu      sync.Mutex
	ops     []blobOp
	windows map[string]*window // snapshot dir → compaction window
}

// blobOp is one recorded blob operation.
type blobOp struct {
	name       string
	start, end int64
	bytes      int
}

type window struct{ start, end int64 }

func (b *walBlob) record(name string, start int64, n int) {
	end := b.tr.now()
	var parent uint64
	if b.owners != nil {
		if id, ok := b.owners.Load(goid()); ok {
			parent = id.(uint64)
		}
	}
	b.tr.add(span{ID: b.tr.id(), Parent: parent, Name: name, Start: start, End: end})
	b.mu.Lock()
	b.ops = append(b.ops, blobOp{name, start, end, n})
	b.mu.Unlock()
}

func (b *walBlob) Put(key string, data []byte) error {
	start := b.tr.now()
	err := b.BlobStore.Put(key, data)
	if dir, file, ok := cutLast(key); ok && strings.HasPrefix(key, "snapshot/") {
		b.mu.Lock()
		if b.windows == nil {
			b.windows = map[string]*window{}
		}
		w := b.windows[dir]
		if w == nil {
			w = &window{start: start}
			b.windows[dir] = w
		}
		if file == "MANIFEST" {
			w.end = b.tr.now()
		}
		b.mu.Unlock()
	}
	b.record("blob.put", start, len(data))
	return err
}

func (b *walBlob) Append(key string) (durable.Appender, error) {
	a, err := b.BlobStore.Append(key)
	if err != nil {
		return nil, err
	}
	return &walAppender{Appender: a, b: b}, nil
}

func cutLast(key string) (dir, file string, ok bool) {
	i := strings.LastIndexByte(key, '/')
	if i < 0 {
		return "", "", false
	}
	return key[:i], key[i+1:], true
}

type walAppender struct {
	durable.Appender
	b *walBlob
}

func (a *walAppender) Write(p []byte) (int, error) {
	start := a.b.tr.now()
	n, err := a.Appender.Write(p)
	a.b.record("blob.append", start, n)
	return n, err
}

func (a *walAppender) Sync() error {
	start := a.b.tr.now()
	err := a.Appender.Sync()
	a.b.record("blob.sync", start, 0)
	return err
}

// metrics fills the WAL and device rungs for the timed phase [t0, t1]
// (tracer times); userBytes is the page bytes the clients put in it.
func (b *walBlob) metrics(rd *round, clients []*kvClient, t0, t1 int64, userBytes float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var appends, syncs []int64
	var journal, snap float64
	for _, op := range b.ops {
		if op.start < t0 || op.start > t1 {
			continue
		}
		switch op.name {
		case "blob.append":
			appends = append(appends, op.end-op.start)
			journal += float64(op.bytes)
		case "blob.sync":
			syncs = append(syncs, op.end-op.start)
		case "blob.put":
			snap += float64(op.bytes)
		}
	}
	var windows []window
	var compactNs float64
	for _, w := range b.windows {
		if w.start >= t0 && w.start <= t1 && w.end > 0 {
			windows = append(windows, *w)
			compactNs += float64(w.end - w.start)
		}
	}
	// Requests that overlapped a compaction.
	var stalled []int64
	for _, c := range clients {
		for _, s := range c.reqSpans {
			for _, w := range windows {
				if s.Start < w.end && s.End > w.start {
					stalled = append(stalled, s.dur())
					break
				}
			}
		}
	}
	slices.Sort(appends)
	slices.Sort(syncs)
	slices.Sort(stalled)
	l := rd.layer
	l["blob.append_us_p50"] = float64(quantile(appends, 0.5)) / 1e3
	l["blob.sync_us_p99"] = float64(quantile(syncs, 0.99)) / 1e3
	l["blob.syncs"] = float64(len(syncs))
	l["wal.compactions"] = float64(len(windows))
	l["wal.compact_s"] = compactNs / float64(time.Second)
	l["wal.write_amp"] = ratio(journal+snap, userBytes)
	l["wal.stall_p99_us"] = float64(quantile(stalled, 0.99)) / 1e3
}
