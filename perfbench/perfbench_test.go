package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartmem/internal/kvstore"
	"smartmem/internal/tmem"
)

// flipStore flips one byte of the first page a get returns.
type flipStore struct {
	kvstore.Store
	flipped atomic.Bool
}

func (s *flipStore) flip(dst []byte) {
	if s.flipped.CompareAndSwap(false, true) {
		dst[9] ^= 0xff
	}
}

func (s *flipStore) Get(key tmem.Key, dst []byte) tmem.Status {
	st := s.Store.Get(key, dst)
	if st == tmem.STmem {
		s.flip(dst)
	}
	return st
}

func (s *flipStore) GetBatch(keys []tmem.Key, dsts [][]byte, sts []tmem.Status) {
	s.Store.GetBatch(keys, dsts, sts)
	for i, st := range sts {
		if st == tmem.STmem {
			s.flip(dsts[i])
			return
		}
	}
}

func testEnv(t *testing.T) *roundEnv {
	return &roundEnv{seed: 7, dir: t.TempDir()}
}

func TestKVChecksCatchAFlippedByte(t *testing.T) {
	for _, spec := range []kvSpec{
		{keys: 256, requests: 400},
		{durable: true, batch: true, keys: 256, requests: 100},
	} {
		rd, err := spec.round(testEnv(t))
		if err != nil {
			t.Fatal(err)
		}
		if rd.failed != 0 || len(rd.problems) != 0 {
			t.Fatalf("durable=%v: clean round failed %d: %v", spec.durable, rd.failed, rd.problems)
		}

		env := testEnv(t)
		env.wrapStore = func(s kvstore.Store) kvstore.Store { return &flipStore{Store: s} }
		rd, err = spec.round(env)
		if err != nil {
			t.Fatal(err)
		}
		if got := failFrac(rd.attempted, rd.failed); got <= 0 {
			t.Fatalf("durable=%v: fail_frac %v with a flipped byte, want > 0", spec.durable, got)
		}
	}
}

// TestKVRoundManyClients runs more clients than the spec's frames hold
// pages for: the backend must grow to fit them.
func TestKVRoundManyClients(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(12))
	for _, spec := range []kvSpec{
		{frames: 4096, keys: 1024, requests: 100},
		{durable: true, batch: true, frames: 4096, keys: 512, requests: 20},
	} {
		rd, err := spec.round(testEnv(t))
		if err != nil {
			t.Fatal(err)
		}
		if rd.failed != 0 || len(rd.problems) != 0 {
			t.Fatalf("durable=%v: %d failed: %v", spec.durable, rd.failed, rd.problems)
		}
	}
}

// TestPacedKVWallIsBusyTime checks that a paced round's wall time holds
// the requests, not the waits between them.
func TestPacedKVWallIsBusyTime(t *testing.T) {
	nc := runtime.GOMAXPROCS(0)
	spec := kvSpec{keys: 256, requests: 20, rate: 100 * float64(nc)} // each client 10 ms apart
	start := time.Now()
	rd, err := spec.round(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 190*time.Millisecond || rd.wall > elapsed/2 {
		t.Fatalf("round took %v, wall %v", elapsed, rd.wall)
	}
}

func TestTracedKVLadderAddsUp(t *testing.T) {
	env := testEnv(t)
	env.tr = newTracer()
	rd, err := kvSpec{durable: true, batch: true, keys: 256, requests: 200}.round(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.problems) != 0 {
		t.Fatal(rd.problems)
	}
	l := rd.layer
	sum := l["wire.rtt_us_mean"] + l["server.encode_us_mean"] + l["store.op_us_mean"]
	if math.Abs(sum-l["wire.req_us_mean"]) > 1e-6*l["wire.req_us_mean"] {
		t.Fatalf("rungs sum to %v, wire.req_us_mean %v", sum, l["wire.req_us_mean"])
	}
	if l["wire.requests"] != 400 || l["blob.append_us_p50"] <= 0 {
		t.Fatalf("wire.requests %v, blob.append_us_p50 %v", l["wire.requests"], l["blob.append_us_p50"])
	}
}

func TestSameSeedSameOps(t *testing.T) {
	for _, spec := range []kvSpec{kvPageSpec, kvDurableSpec} {
		a, b := spec.kvOps(11, 0), spec.kvOps(11, 0)
		if !slices.Equal(a, b) {
			t.Fatal("same seed gave different op sequences")
		}
		if slices.Equal(a, spec.kvOps(12, 0)) || slices.Equal(a, spec.kvOps(11, 1)) {
			t.Fatal("another seed or client gave the same op sequence")
		}
		var kinds [3]int
		for _, op := range a {
			kinds[op.kind]++
		}
		if n := float64(len(a)); math.Abs(float64(kinds[opFlush])/n-0.10) > 0.02 {
			t.Fatalf("flush share %v, want about 0.10", float64(kinds[opFlush])/n)
		}
	}
}

// opWork counts a client's requests by kind and the gets that find data,
// replaying the sequence against a model where every key starts prefilled.
func opWork(spec kvSpec, ops []kvOp) (kinds [3]int, hits int) {
	flushed := map[kvOp]bool{}
	for _, op := range ops {
		kinds[op.kind]++
		key := kvOp{obj: op.obj, idx: op.idx}
		switch op.kind {
		case opPut:
			flushed[key] = false
		case opFlush:
			flushed[key] = true
		case opGet:
			if !flushed[key] {
				hits++
			}
		}
	}
	return kinds, hits
}

func TestSeedsDoTheSameWork(t *testing.T) {
	for _, spec := range []kvSpec{kvPageSpec, kvDurableSpec} {
		kinds, hits := opWork(spec, spec.kvOps(1, 0))
		if want := [3]int{spec.requests * 45 / 100, spec.requests * 45 / 100, spec.requests / 10}; kinds != want {
			t.Fatalf("batch=%v: kinds %v, want %v", spec.batch, kinds, want)
		}
		for seed := uint64(2); seed <= 6; seed++ {
			k, h := opWork(spec, spec.kvOps(seed, int(seed%2)))
			// Only a get scheduled for a flushed key before the first
			// flush can turn into a hit.
			if k != kinds || math.Abs(float64(h-hits)) > 2 {
				t.Fatalf("batch=%v seed %d: kinds %v, hits %d; seed 1: %v, %d", spec.batch, seed, k, h, kinds, hits)
			}
		}
	}
}

func TestSplitProfileCannedStacks(t *testing.T) {
	samples := []stackSample{
		// map probing called by the guest counts to guest and to map
		{frames: []string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2_fast64",
			"smartmem/internal/guest.(*Kernel).accessRun", "smartmem/internal/core.(*nodeRuntime).start.func1"}, ns: 6e7},
		// a futex hand-off under the sim kernel
		{frames: []string{"runtime.futex", "runtime.futexwakeup", "runtime.wakep", "runtime.ready",
			"smartmem/internal/sim.(*Kernel).Run"}, ns: 2e7},
		// the generator's own code
		{frames: []string{"main.(*kvClient).pageOK", "main.(*kvClient).run"}, ns: 1e7},
		// a GC worker owns nothing
		{frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, ns: 1e7},
	}
	got := splitProfile(samples)
	want := map[string]float64{
		"cpu.samples": 10, "cpu.guest": 0.6, "cpu.map": 0.6, "cpu.sim": 0.2, "cpu.sched": 0.2,
		"cpu.bench": 0.1, "bench.client_cpu": 0.1, "cpu.other": 0.1, "cpu.gc": 0.1,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %v", got)
	}
}

func TestParseTracesCanned(t *testing.T) {
	text := `File: perfbench
Type: cpu
Duration: 301.56ms, Total samples = 1.04s (344.87%)
-----------+-------------------------------------------------------
      10ms   aeshashbody
             runtime.mapaccess2
             smartmem/internal/tmem.(*shard).lookup (inline)
             smartmem/internal/tmem.(*Backend).Get
-----------+-------------------------------------------------------
     1.03s   main.main
-----------+-------------------------------------------------------
`
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{frames: []string{"aeshashbody", "runtime.mapaccess2", "smartmem/internal/tmem.(*shard).lookup",
			"smartmem/internal/tmem.(*Backend).Get"}, ns: 10e6},
		{frames: []string{"main.main"}, ns: 1.03e9},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d stacks, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if !slices.Equal(got[i].frames, want[i].frames) || got[i].ns != want[i].ns {
			t.Fatalf("stack %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	split := splitProfile(got)
	if math.Abs(split["cpu.tmem"]-1.0/104) > 1e-9 || math.Abs(split["cpu.map"]-1.0/104) > 1e-9 || split["cpu.samples"] != 104 {
		t.Fatalf("split %v", split)
	}
	for _, v := range []string{"2.5mins", "7us", "1hrs"} {
		if _, err := parseCPUTime(v); err != nil {
			t.Errorf("parseCPUTime(%q): %v", v, err)
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, decl []metricDecl, got []struct{ Name, Unit, Better string }) {
		if len(decl) != len(got) {
			t.Errorf("%s: program declares %d metrics, BENCHMARK.json %d", kind, len(decl), len(got))
		}
		for i := range min(len(decl), len(got)) {
			d, g := decl[i], got[i]
			if d.name != g.Name || d.unit != g.Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, g.Name, g.Unit)
			}
			if !nameRe.MatchString(g.Name) || !unitRe.MatchString(g.Unit) || (g.Better != "higher" && g.Better != "lower") {
				t.Errorf("%s: invalid declaration %+v", kind, g)
			}
		}
	}
	check("end_to_end", e2eMetrics, doc.EndToEnd)
	check("per_layer", layerMetrics, doc.PerLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %q, program %q", got, workloadNames())
	}
}
