package main

import (
	"fmt"
	"math"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// stackSample is one CPU profile stack: its frames, innermost first
// (inlined calls expanded), and the CPU time sampled in it.
type stackSample struct {
	frames []string
	ns     int64
}

// profilePeriod is the CPU profiler's sampling period (100 Hz).
const profilePeriod = 10 * time.Millisecond

// splitProfile charges CPU samples to layers and returns each layer's
// share of all samples as the cpu.* metrics:
//   - cpu.<pkg>: the sample's innermost smartmem/internal/<pkg> frame;
//     cpu.bench when the innermost owned frame is the benchmark's own code
//     (package main); cpu.other when no frame is owned (runtime, stdlib);
//   - cpu.map, cpu.gc, cpu.sched, cpu.syscall: runtime map access and
//     hashing, GC work, scheduler hand-offs and futexes, and raw system
//     calls, across all callers (they overlap the package shares);
//   - cpu.samples: the number of samples, CPU time ÷ profilePeriod;
//   - bench.client_cpu: samples on the load generator's client goroutines.
func splitProfile(samples []stackSample) map[string]float64 {
	out := map[string]float64{}
	var total int64
	for _, s := range samples {
		total += s.ns
	}
	out["cpu.samples"] = math.Round(float64(total) / float64(profilePeriod))
	if total == 0 {
		return out
	}
	add := func(name string, n int64) { out[name] += float64(n) / float64(total) }
	for _, s := range samples {
		owner := "other"
		for _, f := range s.frames {
			if o := frameOwner(f); o != "" {
				owner = o
				break
			}
		}
		add("cpu."+owner, s.ns)
		for _, c := range runtimeClasses(s.frames) {
			add("cpu."+c, s.ns)
		}
		for _, f := range s.frames {
			if strings.HasPrefix(f, clientLoopFrame) {
				add("bench.client_cpu", s.ns)
				break
			}
		}
	}
	return out
}

// clientLoopFrame prefixes the kv load generator's client goroutine.
const clientLoopFrame = "main.(*kvClient).run"

// frameOwner maps a function name to its layer: the internal package
// name, "bench" for the benchmark itself, or "" for anything else.
func frameOwner(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "smartmem/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return ""
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// runtimeClasses returns the runtime categories a stack belongs to.
func runtimeClasses(frames []string) []string {
	if len(frames) == 0 {
		return nil
	}
	var out []string
	leaf := frames[0]
	if hasAnyPrefix(leaf, "runtime.map", "internal/runtime/maps.", "runtime.aeshash", "aeshashbody", "runtime.memhash", "runtime.strhash", "runtime.memequal") {
		out = append(out, "map")
	}
	gc, sched, sys := false, false, false
	for _, f := range frames {
		gc = gc || hasAnyPrefix(f, "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
			"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.wbBufFlush")
		sched = sched || hasAnyPrefix(f, "runtime.schedule", "runtime.findRunnable", "runtime.futex",
			"runtime.usleep", "runtime.osyield", "runtime.stopm", "runtime.startm", "runtime.wakep")
		sys = sys || hasAnyPrefix(f, "syscall.Syscall", "syscall.RawSyscall", "internal/runtime/syscall.Syscall")
	}
	if gc {
		out = append(out, "gc")
	}
	if sched {
		out = append(out, "sched")
	}
	if sys {
		out = append(out, "syscall")
	}
	return out
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// --- reading the profile ---

// readTraces lists a CPU profile's stacks with `go tool pprof -traces`,
// which prints each distinct stack with its CPU time, innermost frame
// first and inlined calls expanded.
func readTraces(profPath string) ([]stackSample, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", profPath).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(string(out))
}

// parseTraces parses `pprof -traces` text: a header, then one block per
// stack, each after a "-----------+---" rule. A block's first line holds
// the stack's CPU time and its innermost frame; the other lines hold one
// caller each. Inlined frames carry an " (inline)" suffix.
func parseTraces(text string) ([]stackSample, error) {
	var out []stackSample
	inBlock := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			inBlock = true
			out = append(out, stackSample{})
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		s := &out[len(out)-1]
		frame := strings.TrimSpace(line)
		if len(s.frames) == 0 {
			value, rest, _ := strings.Cut(frame, " ")
			ns, err := parseCPUTime(value)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			s.ns, frame = ns, strings.TrimSpace(rest)
		}
		s.frames = append(s.frames, strings.TrimSuffix(frame, " (inline)"))
	}
	// The rule also closes the last block.
	if n := len(out); n > 0 && len(out[n-1].frames) == 0 {
		out = out[:n-1]
	}
	return out, nil
}

// parseCPUTime parses pprof's scaled time labels ("10ms", "1.23s",
// "2.5mins") into nanoseconds.
func parseCPUTime(v string) (int64, error) {
	for _, u := range []struct {
		suffix string
		ns     float64
	}{{"mins", 60e9}, {"hrs", 3600e9}, {"ns", 1}, {"us", 1e3}, {"ms", 1e6}, {"s", 1e9}} {
		if num, ok := strings.CutSuffix(v, u.suffix); ok {
			x, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return int64(math.Round(x * u.ns)), nil
		}
	}
	return 0, fmt.Errorf("unknown time unit in %q", v)
}
