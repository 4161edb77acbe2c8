package durable

import (
	"fmt"
	"testing"

	"smartmem/internal/tmem"
)

// BenchmarkWALAppend measures the journaling hot path: one page put =
// build record + checksum + append (+ group commit under fsync=always on
// a real file). The mem variants isolate the codec/locking cost; the dir
// variants add the kernel write path.
func BenchmarkWALAppend(b *testing.B) {
	const pageSize = 4096
	data := make([]byte, pageSize)
	for i := range data {
		data[i] = byte(i * 31)
	}

	run := func(name string, mkBlob func(b *testing.B) BlobStore, fsync FsyncPolicy) {
		b.Run(name, func(b *testing.B) {
			opts := Options{
				Blob:          mkBlob(b),
				PageSize:      pageSize,
				Fsync:         fsync,
				InlineCompact: true,
				CompactBytes:  -1,
			}
			l, err := Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(pageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := tmem.Key{Pool: 0, Object: tmem.ObjectID(i >> 16), Index: tmem.PageIndex(i)}
				if err := l.Put(k, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	memBlob := func(b *testing.B) BlobStore { return NewMemStore() }
	dirBlob := func(b *testing.B) BlobStore {
		d, err := NewDirStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	run("mem-nofsync", memBlob, FsyncOff)
	run("dir-nofsync", dirBlob, FsyncOff)
	run("dir-fsync-always", dirBlob, FsyncAlways)
}

// BenchmarkWALAppendBatch measures the batched group-commit path.
func BenchmarkWALAppendBatch(b *testing.B) {
	const pageSize = 4096
	for _, batch := range []int{16, 256} {
		b.Run(fmt.Sprintf("mem-batch-%d", batch), func(b *testing.B) {
			l, err := Open(Options{
				Blob:          NewMemStore(),
				PageSize:      pageSize,
				Fsync:         FsyncOff,
				InlineCompact: true,
				CompactBytes:  -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
				b.Fatal(err)
			}
			keys := make([]tmem.Key, batch)
			datas := make([][]byte, batch)
			data := make([]byte, pageSize)
			for i := range datas {
				datas[i] = data
			}
			b.SetBytes(int64(pageSize * batch))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range keys {
					keys[j] = tmem.Key{Pool: 0, Object: tmem.ObjectID(i), Index: tmem.PageIndex(j)}
				}
				if err := l.PutBatch(keys, datas); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// discardStore drops what it is given: Put keeps nothing and appenders
// write nowhere, so a benchmark or allocation count over it measures the
// journal's own encoding and bookkeeping.
type discardStore struct{ *MemStore }

func (discardStore) Put(string, []byte) error        { return nil }
func (discardStore) Append(string) (Appender, error) { return discardAppender{}, nil }

type discardAppender struct{}

func (discardAppender) Write(p []byte) (int, error) { return len(p), nil }
func (discardAppender) Sync() error                 { return nil }
func (discardAppender) Close() error                { return nil }

// BenchmarkCompact measures one compaction of a 4096-page (16 MiB) mirror
// with the default 1 MiB slabs: capture, sort, encode every page into the
// slab buffer and put 16 slabs. The discard variant isolates the encoder
// (its B/op is the compaction's own allocation); the dir variant adds the
// kernel write and the per-slab fsync of a real DirStore.
func BenchmarkCompact(b *testing.B) {
	const pageSize, pages = 4096, 4096
	run := func(name string, mkBlob func(b *testing.B) BlobStore) {
		b.Run(name, func(b *testing.B) {
			l, err := Open(Options{Blob: mkBlob(b), PageSize: pageSize, Fsync: FsyncOff, InlineCompact: true, CompactBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
				b.Fatal(err)
			}
			data := make([]byte, pageSize)
			for i := 0; i < pages; i++ {
				data[0], data[1] = byte(i), byte(i>>8)
				if err := l.Put(tmem.Key{Pool: 0, Object: tmem.ObjectID(i / 64), Index: tmem.PageIndex(i % 64)}, data); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(pages * pageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Compact(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("discard", func(b *testing.B) BlobStore { return discardStore{NewMemStore()} })
	run("dir", func(b *testing.B) BlobStore {
		d, err := NewDirStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return d
	})
}
