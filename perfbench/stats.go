package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memDelta measures what the Go runtime allocated and collected between
// two points.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	pause      time.Duration
}

type memMark runtime.MemStats

func markMem() *memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memMark)(&m)
}

func (a *memMark) since() memDelta {
	b := markMem()
	return memDelta{
		allocBytes: b.TotalAlloc - a.TotalAlloc,
		gcCycles:   b.NumGC - a.NumGC,
		pause:      time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

// rssSampler records the process's peak resident set over an interval (a
// pass or a round) by sampling /proc/self/statm every 5 ms; where that file
// does not exist it falls back to the memory the Go runtime holds from the
// OS.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	v := rssBytes()
	s.mu.Lock()
	if v > s.peak {
		s.peak = v
	}
	s.mu.Unlock()
}

// peakMB stops the sampler and returns the peak in MB.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	return float64(s.peak) / (1 << 20)
}

var pageSize = int64(os.Getpagesize())

func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		f := bytes.Fields(b)
		if len(f) > 1 {
			if pages, err := strconv.ParseInt(string(f[1]), 10, 64); err == nil {
				return pages * pageSize
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.Sys)
}

// byKey collects samples per key, for percentiles over each key's median.
type byKey map[string][]float64

func (b byKey) add(k string, v float64) { b[k] = append(b[k], v) }

// medians returns each key's median sample.
func (b byKey) medians() []float64 {
	out := make([]float64, 0, len(b))
	for _, xs := range b {
		out = append(out, median(xs))
	}
	return out
}
