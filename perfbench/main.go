// Command perfbench is smartmem's end-to-end benchmark. It runs one named
// workload against the KV serving path — kvstore.Server over an in-memory
// store (kv-page) or over the durable journal (kv-durable) — checks the
// workload's outputs, and prints the metrics declared in BENCHMARK.json at
// the repository root.
//
//	perfbench --workload kv-page --seed 7 --seconds 20 --trace 0
//
// Untraced runs (--trace 0) run one warm-up round, then repeat the
// workload's fixed round of work until --seconds have passed and report
// medians over the rounds after the warm-up as the end-to-end metrics.
// Traced runs (--trace 1) run one untraced and one traced round and report
// the per-layer metrics. Every measurement is
// taken from outside the program, around calls into its public seams; see
// README.md in this directory.
//
// Lines starting with "#" carry the environment stamp and the exact model
// counts; the last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"smartmem/internal/kvstore"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one invocation's settings.
type options struct {
	seed   uint64
	budget time.Duration
	work   string // scratch directory for stores, journals and span files
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "measurement budget of an untraced run, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced round and prints the per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	opt := options{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		work:   *work,
	}

	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	stamp, _ := json.Marshal(envStamp())
	fmt.Fprintf(stdout, "# env %s\n", stamp)

	var out *outcome
	var err error
	if *traced == 1 {
		out, err = runTraced(w, opt)
	} else {
		out, err = runUntraced(w, opt)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, line := range out.info {
		fmt.Fprintf(stdout, "# %s\n", line)
	}
	counts, _ := json.Marshal(out.counts)
	fmt.Fprintf(stdout, "# counts %s\n", counts)
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.name, p)
	}

	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(out.metrics)),
	}
	for name, v := range out.metrics {
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run hands back to main for printing.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	counts            map[string]float64
	info              []string
	problems          []string // failed checks beyond per-op failures
}

// round is one repetition of a workload's fixed work. Rounds of one seed
// do the same work, so their counts must agree exactly.
type round struct {
	setup    time.Duration // set-up before the first timed op
	wall     time.Duration // the clients' busy time in the timed phase
	pages    float64       // pages handled in the timed phase
	hitsPerS float64       // pages returned by gets per second of wall
	lats     []int64       // latency of each request, in ns

	attempted, failed int64
	problems          []string
	counts            map[string]float64 // exact; compared across rounds
	layer             map[string]float64 // per-layer metrics (traced rounds)
}

// roundEnv is what a workload's round gets to work with.
type roundEnv struct {
	seed uint64
	dir  string  // a fresh scratch directory, removed after the round
	tr   *tracer // nil in untraced rounds

	// Fault injection for the benchmark's own tests; nil otherwise.
	wrapStore func(kvstore.Store) kvstore.Store
}

// workload is one named input set.
type workload struct {
	name  string
	round func(env *roundEnv) (*round, error)
	// procs, when not 0, is the GOMAXPROCS the workload runs at.
	procs int
}

// kv-durable runs on one P: on the reference VM, rounds of the journal's
// client, writer and fsync loop varied up to 2× within a run on two Ps and
// 6% on one. kv-page keeps one P, one store shard and one client per CPU;
// its rounds were steady that way.
var workloads = []workload{
	{name: "kv-page", round: kvPageRound},
	{name: "kv-durable", round: kvDurableRound, procs: 1},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// runRound runs one round in its own scratch directory. The previous
// round's garbage is collected first, so rounds start from the same heap.
func runRound(w workload, opt options, tr *tracer) (*round, error) {
	runtime.GC()
	dir, err := os.MkdirTemp(opt.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rd, err := w.round(&roundEnv{seed: opt.seed, dir: dir, tr: tr})
	if err != nil {
		return nil, err
	}
	if rd.wall <= 0 || rd.setup <= 0 {
		return nil, errors.New("round reported no timed phase")
	}
	return rd, nil
}

// runUntraced runs one warm-up round, then repeats rounds until the
// budget is spent (at least one; another starts only if it is expected to
// fit) and reports medians over all but the warm-up. The warm-up's outputs
// are checked like every other round's.
func runUntraced(w workload, opt options) (*outcome, error) {
	start := time.Now()
	warm, err := runRound(w, opt, nil)
	if err != nil {
		return nil, err
	}
	steal0, total0 := stealTicks()
	rounds := []*round{warm}
	for {
		t := time.Now()
		rd, err := runRound(w, opt, nil)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rd)
		if time.Since(start)+time.Since(t) > opt.budget {
			break
		}
	}
	timed := rounds[1:]
	out := &outcome{metrics: make(map[string]float64), counts: rounds[0].counts}
	var setup, wall, pages, hits []float64
	var lats []int64
	for i, rd := range rounds {
		out.attempted += rd.attempted
		out.failed += rd.failed
		out.problems = append(out.problems, rd.problems...)
		if d := diffCounts(rounds[0].counts, rd.counts); d != "" {
			out.problems = append(out.problems, fmt.Sprintf("round %d counts differ from round 0: %s", i, d))
		}
	}
	for _, rd := range timed {
		setup = append(setup, rd.setup.Seconds())
		wall = append(wall, rd.wall.Seconds())
		pages = append(pages, rd.pages/rd.wall.Seconds())
		hits = append(hits, rd.hitsPerS)
		lats = append(lats, rd.lats...)
	}
	// Latency quantiles pool every round's samples, so the tail has enough
	// samples beyond it. The gated tail is p90: p99 and p99.9 sit on rare
	// fsync, compaction and GC stalls whose length follows the shared
	// machine more than the program; they are printed for reference.
	steal1, total1 := stealTicks()
	slices.Sort(lats)
	us := func(q float64) float64 { return float64(quantile(lats, q)) / 1e3 }
	out.metrics["setup_s"] = median(setup)
	out.metrics["wall_s"] = median(wall)
	out.metrics["pages_per_s"] = median(pages)
	out.metrics["hits_per_s"] = median(hits)
	out.metrics["lat_p50_us"] = us(0.50)
	out.metrics["lat_p90_us"] = us(0.90)
	out.metrics["mem_peak_mb"] = peakRSSMiB()
	out.info = append(out.info,
		fmt.Sprintf("timed rounds %d after a warm-up, latency samples %d (%d per round), p99 %.4g us, p99.9 %.4g us, fail_frac %g, cpu steal %.1f%%",
			len(timed), len(lats), len(lats)/len(timed), us(0.99), us(0.999), failFrac(out.attempted, out.failed),
			100*ratio(steal1-steal0, total1-total0)),
		fmt.Sprintf("round wall_s %.4g", wall))
	return out, nil
}

// runTraced runs one untraced round as the overhead baseline, then the
// same round traced and profiled, and reports the per-layer metrics.
func runTraced(w workload, opt options) (*outcome, error) {
	base, err := runRound(w, opt, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	rd, err := runRound(w, opt, tr)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: base.attempted + rd.attempted,
		failed:    base.failed + rd.failed,
		metrics:   make(map[string]float64),
		counts:    rd.counts,
		problems:  append(base.problems, rd.problems...),
	}
	if d := diffCounts(base.counts, rd.counts); d != "" {
		out.problems = append(out.problems, "traced counts differ from untraced: "+d)
	}
	for _, m := range layerMetrics {
		out.metrics[m.name] = 0
	}
	for name, v := range rd.layer {
		if _, ok := out.metrics[name]; !ok {
			return nil, fmt.Errorf("undeclared per-layer metric %q", name)
		}
		out.metrics[name] = v
	}
	prof, err := tr.profile(filepath.Join(opt.work, fmt.Sprintf("cpu-%s-seed%d.pprof", w.name, opt.seed)))
	if err != nil {
		return nil, err
	}
	for name, v := range splitProfile(prof) {
		out.metrics[name] = v
	}
	out.metrics["trace.overhead_frac"] = rd.wall.Seconds()/base.wall.Seconds() - 1
	out.metrics["trace.spans"] = float64(tr.count())
	out.metrics["fail_frac"] = failFrac(out.attempted, out.failed)
	path := filepath.Join(opt.work, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, opt.seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	out.info = append(out.info, fmt.Sprintf("spans %d written to %s; profile samples %.0f",
		tr.count(), path, out.metrics["cpu.samples"]))
	return out, nil
}

func failFrac(attempted, failed int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// diffCounts describes the first difference between two count sets, or
// returns "" when they are identical.
func diffCounts(a, b map[string]float64) string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		va, oka := a[k]
		vb, okb := b[k]
		if !oka || !okb || va != vb {
			return fmt.Sprintf("%s: %v vs %v", k, va, vb)
		}
	}
	return ""
}
