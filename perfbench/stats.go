package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile. A
// percentile with fewer is an estimate of a handful of outliers, not of the
// distribution's tail, so it is refused rather than printed.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses when fewer than minTail samples lie strictly above the rank. xs
// is sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p*100)
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p*100, n, beyond, minTail)
	}
	return xs[rank-1], nil
}

// median returns the middle value of xs (mean of the middle two for an even
// count); unlike percentile it accepts any non-empty sample, for summaries
// of a few repeated set-ups or passes.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// durUS converts durations to float microseconds.
func durUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// peakRSSMB reads this process's high-water resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// usage is what this process has spent so far: user plus system CPU time,
// which excludes the time a virtual machine's host runs others on its
// vCPUs, and the bytes it has allocated on the heap.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), alloc: ms.TotalAlloc}
}

// measured is what a run's measured work spent: usage at its start, at
// the end of its first unit and at its end, and the peak resident set at
// the end of the first unit. The first unit is one suite pass or one sweep
// of the tree on every platform, the same work in every run however fast
// the host runs the rest; a serve run's is its whole closed loop, whose
// allocation is reported per op.
type measured struct {
	start, first, end usage
	firstPeakMB       float64
}

// markFirst records the end of the first unit of work.
func (m *measured) markFirst() (err error) {
	m.first = readUsage()
	m.firstPeakMB, err = peakRSSMB()
	return err
}

// setCosts reports the end-to-end costs of the first unit of work, which
// holds firstUnits ops, schedules or experiments: the heap it allocated per
// unit and the peak resident set. The CPU time per unit over all allUnits
// is a detail line (see README.md: on a shared host it drifts more than
// any bound).
func (r *run) setCosts(m measured, firstUnits, allUnits int) {
	r.set("alloc_kb_per_unit", "KB", float64(m.first.alloc-m.start.alloc)/1024/float64(firstUnits), firstUnits)
	r.set("peak_rss_mb", "MB", m.firstPeakMB, 0)
	fmt.Printf("detail %-34s %14.4f ms     (n=%d)\n", "cpu_ms_per_unit", float64(m.end.cpu-m.start.cpu)/float64(time.Millisecond)/float64(allUnits), allUnits)
}

// releaseHeap returns the garbage of a released set-up to the OS, so that
// the peak resident set is the measured run's, not a leftover's.
func releaseHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}
