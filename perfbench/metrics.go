package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
)

// metricDecl names one metric and its unit. The lists below are the
// program's side of BENCHMARK.json; a test holds the two equal.
type metricDecl struct{ name, unit string }

// e2eMetrics are printed by every untraced run of every workload: the unit
// of work is a wire request, and pages are the pages it puts, gets or
// flushes.
var e2eMetrics = []metricDecl{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"pages_per_s", "1/s"},
	{"hits_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p90_us", "us"},
	{"mem_peak_mb", "MiB"},
}

// internalPackages are the program's packages the CPU profile is split by.
var internalPackages = []string{
	"core", "durable", "experiments", "guest", "hdr", "kvstore", "mem", "metrics",
	"policy", "report", "sim", "tkm", "tmem", "vdisk", "workload",
}

// layerMetrics are printed by every traced run; a workload that bypasses a
// layer reports 0 for it.
var layerMetrics = func() []metricDecl {
	// CPU profile split
	var m []metricDecl
	for _, p := range internalPackages {
		m = append(m, metricDecl{"cpu." + p, "ratio"})
	}
	m = append(m, []metricDecl{
		{"cpu.bench", "ratio"},
		{"cpu.other", "ratio"},
		{"cpu.map", "ratio"},
		{"cpu.sched", "ratio"},
		{"cpu.gc", "ratio"},
		{"cpu.syscall", "ratio"},
		{"cpu.samples", "count"},
		// wire
		{"wire.requests", "count"},
		{"wire.put_us_p50", "us"},
		{"wire.get_us_p50", "us"},
		{"wire.flush_us_p50", "us"},
		{"wire.lat_p999_us", "us"},
		{"wire.req_us_mean", "us"},
		{"wire.rtt_us_mean", "us"},
		{"server.encode_us_mean", "us"},
		// store
		{"store.op_us_mean", "us"},
		{"store.op_us_p99", "us"},
		{"store.busy_frac", "ratio"},
		{"store.get_hit_ratio", "ratio"},
		// WAL + device
		{"blob.append_us_p50", "us"},
		{"blob.sync_us_p99", "us"},
		{"blob.syncs", "count"},
		{"wal.compactions", "count"},
		{"wal.compact_s", "s"},
		{"wal.write_amp", "ratio"},
		{"wal.stall_p99_us", "us"},
		{"wal.appended_mb", "MiB"},
		{"durable.recover_s", "s"},
		// generator health
		{"bench.client_balance", "ratio"},
		{"bench.client_cpu", "ratio"},
		// tracing and checks
		{"trace.overhead_frac", "ratio"},
		{"trace.spans", "count"},
		{"fail_frac", "ratio"},
	}...)
	return m
}()

func unitOf(name string) string {
	for _, list := range [][]metricDecl{e2eMetrics, layerMetrics} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// --- statistics ---

// quantile returns the nearest-rank q-quantile of sorted values (0 when
// empty).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func meanInt64(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// --- environment ---

// env is the stamp printed with every result, so numbers from different
// machines are never compared unflagged.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

func envStamp() env {
	e := env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        procField("/proc/cpuinfo", "model name"),
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Dirty = s.Value == "true"
			}
		}
	}
	return e
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks returns the CPU time the hypervisor stole from the machine and
// the machine's total CPU time, in clock ticks, from /proc/stat. A run
// prints the stolen share: on a shared VM it explains a slow run.
func stealTicks() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	f := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(f) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
