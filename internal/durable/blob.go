// Package durable implements the bottom leg of the tmem demotion chain:
// a write-ahead log plus periodic slab snapshots, streamed to a pluggable
// blob store, with crash-recovery replay on boot (the lightningstream
// LMDB→S3 shape adapted to tmem pages). Persistent-pool mutations are
// journaled as checksummed records in segmented log files; compaction
// folds the live pages into snapshot slabs and prunes the log. Recovery
// loads the newest complete snapshot and replays the WAL tail, tolerating
// a torn final record.
//
// The package exposes three integration surfaces:
//
//   - Log: the journal itself — mirror state, WAL, snapshots, recovery.
//   - Tier: a tmem.Tier/BatchTier over a Log, the simulator's demotion leg
//     (RAM → compressed RAM → peer RAM → durable blob).
//   - Store: a write-through wrapper around a *tmem.Backend implementing
//     the kvstore server surface, the smartmem-kvd integration — every
//     successful persistent put is journaled regardless of which RAM tier
//     absorbed it, so a SIGKILL loses nothing.
package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// BlobStore is the pluggable persistence backend. The method set is
// S3-shaped (whole-object Put/Get/List/Delete over flat string keys with
// "/" separators) so a real object store drops in later; Append is the
// one extension WAL segments need — an S3 backend would buffer and
// multipart-upload on Sync, the local backends append in place.
//
// Implementations must be safe for concurrent use. Put must be atomic:
// a reader never observes a half-written blob.
type BlobStore interface {
	// Put atomically creates or replaces a whole blob. It must not retain
	// data after it returns: the snapshot writer reuses one buffer for
	// every slab it puts.
	Put(key string, data []byte) error
	// Get returns a blob's full contents. Absent blobs report an error
	// satisfying errors.Is(err, os.ErrNotExist).
	Get(key string) ([]byte, error)
	// List returns every key with the given prefix, in lexical order.
	List(prefix string) ([]string, error)
	// Delete removes a blob; deleting an absent blob is not an error.
	Delete(key string) error
	// Append opens a blob for appending, creating it if absent.
	Append(key string) (Appender, error)
}

// Appender is an open, append-only blob handle. Sync makes everything
// written so far durable against machine crash; Close releases the handle
// without an implied sync.
type Appender interface {
	io.Writer
	Sync() error
	Close() error
}

// --- local directory backend ---

// DirStore is the local-filesystem BlobStore: each key is a file under a
// root directory. Put goes through a temp file + rename so it is atomic on
// POSIX filesystems. Appenders write straight through an *os.File with no
// user-space buffering, so every record handed to Write has reached the
// kernel before the call returns — a SIGKILL'd process loses at most the
// record being written, which is exactly the torn tail recovery tolerates.
// Sync (fsync) is only needed to survive machine crashes.
type DirStore struct {
	root string
}

// NewDirStore creates (if needed) and opens a directory-backed store.
func NewDirStore(root string) (*DirStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("durable: blob dir: %w", err)
	}
	return &DirStore{root: root}, nil
}

// Root returns the store's root directory.
func (d *DirStore) Root() string { return d.root }

// path validates a blob key and maps it to a filesystem path. Keys are
// flat slash-separated names produced by this package; anything that
// could escape the root is rejected outright.
func (d *DirStore) path(key string) (string, error) {
	if key == "" || strings.HasPrefix(key, "/") || strings.Contains(key, "..") {
		return "", fmt.Errorf("durable: invalid blob key %q", key)
	}
	return filepath.Join(d.root, filepath.FromSlash(key)), nil
}

func (d *DirStore) Put(key string, data []byte) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func (d *DirStore) Get(key string) ([]byte, error) {
	p, err := d.path(key)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// List walks only the directory that holds the prefix's keys (the part
// up to its last "/"), not the whole root.
func (d *DirStore) List(prefix string) ([]string, error) {
	dir := d.root
	if i := strings.LastIndexByte(prefix, '/'); i >= 0 {
		p, err := d.path(prefix[:i])
		if err != nil {
			return nil, err
		}
		dir = p
	}
	var out []string
	err := filepath.WalkDir(dir, func(p string, e os.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) && p == dir {
			return fs.SkipAll // no key has this prefix yet
		}
		if err != nil || e.IsDir() {
			return err
		}
		rel, rerr := filepath.Rel(d.root, p)
		if rerr != nil {
			return rerr
		}
		key := filepath.ToSlash(rel)
		// Skip in-flight Put temp files.
		if strings.HasPrefix(filepath.Base(key), ".tmp-") {
			return nil
		}
		if strings.HasPrefix(key, prefix) {
			out = append(out, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

func (d *DirStore) Delete(key string) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func (d *DirStore) Append(key string) (Appender, error) {
	p, err := d.path(key)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// --- in-memory backend ---

// MemStore is the in-memory BlobStore: the deterministic simulator
// backend and the unit-test crash double. Appended bytes are visible in
// the map as soon as Write returns, so "kill the process and reopen the
// store" is modeled by simply discarding the Log and opening a new one
// over the same MemStore.
type MemStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[string][]byte)}
}

func (m *MemStore) Put(key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blobs[key] = append([]byte(nil), data...)
	return nil
}

func (m *MemStore) Get(key string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[key]
	if !ok {
		return nil, fmt.Errorf("durable: blob %q: %w", key, os.ErrNotExist)
	}
	return append([]byte(nil), b...), nil
}

func (m *MemStore) List(prefix string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for k := range m.blobs {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (m *MemStore) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blobs, key)
	return nil
}

func (m *MemStore) Append(key string) (Appender, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[key]; !ok {
		m.blobs[key] = nil
	}
	return &memAppender{store: m, key: key}, nil
}

// Corrupt replaces a blob's bytes in place — the unit-test hook for
// simulating torn tails and bit rot without reaching into internals.
func (m *MemStore) Corrupt(key string, f func([]byte) []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[key]
	if !ok {
		return fmt.Errorf("durable: blob %q: %w", key, os.ErrNotExist)
	}
	m.blobs[key] = f(append([]byte(nil), b...))
	return nil
}

type memAppender struct {
	store *MemStore
	key   string
}

func (a *memAppender) Write(p []byte) (int, error) {
	a.store.mu.Lock()
	defer a.store.mu.Unlock()
	a.store.blobs[a.key] = append(a.store.blobs[a.key], p...)
	return len(p), nil
}

func (a *memAppender) Sync() error  { return nil }
func (a *memAppender) Close() error { return nil }

var (
	_ BlobStore = (*DirStore)(nil)
	_ BlobStore = (*MemStore)(nil)
)
