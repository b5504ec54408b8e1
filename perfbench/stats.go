package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (mean of the middle two); 0 for no values.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile with the
// same "exclusive" interpolation as Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	n := len(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// fastQuartile returns the quartile on the fast side of per-execution (or
// per-window) costs: the lower quartile of times, or the upper quartile of
// rates when higherIsFaster. Interference from the rest of the host only
// ever slows an execution down, so this quartile follows the program's own
// speed more steadily than the median does.
func fastQuartile(xs []float64, higherIsFaster bool) float64 {
	q1, _, q3 := quartiles(xs)
	if higherIsFaster {
		return q3
	}
	return q1
}

// percentile returns the p-th percentile (0..100) by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// runtimeSample reads the Go runtime counters the benchmark reports.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// processCPU is the CPU time the process has used, user plus system. Unlike
// wall time it does not include time the host took the CPU away.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap collects garbage and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// checkSourceTree fails unless the benchmark runs from the root of a tree
// that holds the program and the example inputs it reads.
func checkSourceTree() error {
	for _, p := range []string{"go.mod", "internal", demoCF, snvCWL} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// sourceDigest hashes the program's Go sources and go.mod, so a record
// identifies the code it measured even without version control.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"go.mod", "internal", "cmd"} {
		_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
