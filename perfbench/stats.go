package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported as measured
// only when at least this many samples lie above it.
const minBeyond = 10

// pct is one percentile of a sample, with the counts that say whether it can
// be trusted.
type pct struct {
	P      float64 // percentile level in (0, 100]
	Value  float64
	N      int // samples
	Beyond int // samples strictly after the percentile's rank
}

// Valid reports whether the percentile keeps minBeyond samples beyond it.
func (p pct) Valid() bool { return p.Beyond >= minBeyond }

// percentile returns the nearest-rank p-th percentile of sorted, which must
// be in ascending order. The rank is ceil(p/100·n), so the 50th percentile of
// an even sample is the lower middle value and Beyond counts the samples
// ranked after it.
func percentile(sorted []float64, p float64) pct {
	n := len(sorted)
	if n == 0 {
		return pct{P: p}
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return pct{P: p, Value: sorted[rank-1], N: n, Beyond: n - rank}
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 50th percentile of xs (any order); 0 for an empty sample.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50).Value
}

// medianDuration is median over durations, in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB. On
// systems without /proc it falls back to the memory the Go runtime obtained
// from the OS, which bounds the RSS from above.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
