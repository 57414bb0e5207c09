package main

import (
	"bufio"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// tailMinBeyond is how many samples must lie above the reported tail
// percentile, so the tail is never read off a handful of outliers.
const tailMinBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailLadder are the percentiles the tail is read at.  A fixed ladder keeps
// the reported percentile the same from run to run while the sample count
// moves within a band, so a build that completes more operations in a
// closed loop is not compared at a higher percentile.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tail returns the highest ladder percentile with at least tailMinBeyond
// samples above it, its value (nearest rank; the interpolated median at
// p50) and the sample count.
func tail(xs []float64) (value, percentile float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	value, percentile = median(s), 50
	for _, p := range tailLadder[1:] {
		rank := int(math.Ceil(float64(n) * p / 100))
		if n-rank < tailMinBeyond {
			break
		}
		value, percentile = s[rank-1], p
	}
	return value, percentile, n
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
