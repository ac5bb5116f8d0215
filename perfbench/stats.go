package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tailLevels is the percentile ladder a tail latency is read from: the
// reported tail is the highest level with at least tailBeyond samples
// above it, so it is never an extrapolation from one or two outliers.
var tailLevels = []float64{99, 95, 90, 75, 50}

const tailBeyond = 10

// samples is one timed series: per-operation wall times and, for
// throughput, the logical bytes each operation moved. Operations are
// staged per round, and endRound merges a round into the series only if
// the round passed its checks, so a failed round yields no sample.
type samples struct {
	ms    []float64
	bytes int64
	total time.Duration
	rates []float64 // throughput of every merged round
	// round and roundBytes hold the current round's operations.
	round      []time.Duration
	roundBytes int64
}

func (s *samples) add(d time.Duration, bytes int64) {
	s.round = append(s.round, d)
	s.roundBytes += bytes
}

// endRound merges the current round into the series if ok, and drops it
// otherwise. A round's throughput is its logical MB over its summed
// operation time (not wall time: generation and checking happen outside
// the timers).
func (s *samples) endRound(ok bool) {
	if ok && len(s.round) > 0 {
		var t time.Duration
		for _, d := range s.round {
			s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
			t += d
		}
		s.bytes += s.roundBytes
		s.total += t
		if t > 0 {
			s.rates = append(s.rates, float64(s.roundBytes)/(1<<20)/t.Seconds())
		}
	}
	s.round, s.roundBytes = s.round[:0], 0
}

// n counts the operations measured so far, the current round's included.
func (s *samples) n() int { return len(s.ms) + len(s.round) }

// mbPerSec is the median of the rounds' throughputs. The median keeps
// one round slowed by a neighbour's burst of CPU or disk work from
// moving the run's figure.
func (s *samples) mbPerSec() float64 { return median(s.rates) }

func (s *samples) p50() float64 { return percentile(s.ms, 50) }

// tail returns the tail latency and the percentile it was read at.
func (s *samples) tail() (float64, float64) {
	level := tailLevel(len(s.ms))
	return percentile(s.ms, level), level
}

// tailLevel is the highest ladder percentile with at least tailBeyond of
// n samples above it (the median when n is too small for any).
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= tailBeyond {
			return p
		}
	}
	return 50
}

// percentile is the linear-interpolated p-th percentile (0..100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// rssSampler tracks the process's peak resident set (servers, client
// and harness buffers share the process) between calls to roundPeak,
// reading /proc/self/statm every rssEvery. A round's peak depends on
// where garbage collections fall, so workloads report the median of
// their rounds' peaks rather than the run's single highest.
type rssSampler struct {
	mu   sync.Mutex
	peak int64
	stop chan struct{}
	done chan struct{}
}

const rssEvery = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.peak = max(s.peak, pages*int64(os.Getpagesize()))
	s.mu.Unlock()
}

// roundPeak returns the peak in MB since the previous call and starts a
// new round.
func (s *rssSampler) roundPeak() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peak
	s.peak = 0
	return float64(p) / (1 << 20)
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// metric is one named value with its unit and how it was sampled.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"-"`
}

func (m metric) String() string {
	return fmt.Sprintf("  %-36s %14.4f %-6s %s", m.Name, m.Value, m.Unit, m.Note)
}
