package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent is 0 for a root or background span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a traced round's spans in memory until the run ends, and
// its CPU profile. Hot paths append to slices of a single owner (such as
// kvClient.reqSpans) and hand them over with adopt, so recording takes no
// shared lock.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	prof      bytes.Buffer
	profiling bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64           { return int64(time.Since(t.epoch)) }
func (t *tracer) id() uint64           { return t.nextID.Add(1) }
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.epoch)) }

// add records one span; safe for concurrent use.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// adopt takes over a batch of spans recorded by a single owner.
func (t *tracer) adopt(ss []span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// startProfile begins the CPU profile of the timed phase.
func (t *tracer) startProfile() error {
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.profiling = true
	return nil
}

func (t *tracer) stopProfile() {
	if t.profiling {
		pprof.StopCPUProfile()
		t.profiling = false
	}
}

// profile writes the CPU profile to path and returns its stacks.
func (t *tracer) profile(path string) ([]stackSample, error) {
	t.stopProfile()
	if t.prof.Len() == 0 {
		return nil, nil
	}
	if err := os.WriteFile(path, t.prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return readTraces(path)
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the current goroutine's id, parsed from its stack header
// ("goroutine 18 [running]:"). It costs about a microsecond, so only the
// traced kv-durable round uses it, to tie journal writes to the request
// whose store call issued them.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
