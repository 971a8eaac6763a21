package main

// Measurement primitives: process CPU and peak RSS from getrusage,
// host steal from /proc/stat, GC and allocation counts from the
// runtime, and order statistics. CPU time is what the gated metrics
// are normalised by, because on a shared host wall-clock throughput
// moves with the hypervisor's steal while CPU seconds do not.

import (
	"bufio"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one reading of every counter a phase is measured by.
type sample struct {
	wall     time.Time
	cpu      time.Duration // process user+sys
	stealJ   uint64        // host-wide steal jiffies
	totalJ   uint64        // host-wide jiffies
	gcCycles uint32
	mallocs  uint64
	allocB   uint64
}

// cpuNow returns the process's user+sys CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set (ru_maxrss, KiB on
// Linux) in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procStat reads the aggregate "cpu" line of /proc/stat: steal and
// total jiffies. Hosts without it read as zero steal.
func procStat() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is not summed.
	for i := 1; i <= 8 && i < len(fields); i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// take reads every counter. The runtime.ReadMemStats call stops the
// world briefly, so take is called at phase boundaries only.
func take() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := sample{wall: time.Now(), cpu: cpuNow(), gcCycles: ms.NumGC, mallocs: ms.Mallocs, allocB: ms.TotalAlloc}
	s.stealJ, s.totalJ = procStat()
	return s
}

// phase is the difference between two samples.
type phase struct {
	wall, cpu time.Duration
	stealPct  float64
	gcCycles  float64
	mallocs   float64
	allocB    float64
}

func since(a sample) phase {
	b := take()
	p := phase{
		wall:     b.wall.Sub(a.wall),
		cpu:      b.cpu - a.cpu,
		gcCycles: float64(b.gcCycles - a.gcCycles),
		mallocs:  float64(b.mallocs - a.mallocs),
		allocB:   float64(b.allocB - a.allocB),
	}
	if dt := b.totalJ - a.totalJ; dt > 0 {
		p.stealPct = 100 * float64(b.stealJ-a.stealJ) / float64(dt)
	}
	return p
}

// histogram is a preallocated log-linear latency histogram: 64 octaves
// of 64 linear sub-buckets (1.6% resolution), so recording a per-call
// latency on a hot loop costs an index computation and an increment.
type histogram struct {
	counts [64 * 64]int64
	n      int64
	sum    float64
}

func histIndex(v int64) int {
	if v < 64 {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // position of the top bit, >= 6
	sub := (v >> uint(exp-6)) & 63
	return (exp-5)*64 + int(sub)
}

// bucketBounds inverts histIndex: the half-open value range [lo, hi)
// bucket i covers.
func bucketBounds(i int) (lo, hi float64) {
	if i < 64 {
		return float64(i), float64(i + 1)
	}
	exp := i/64 + 5
	sub := int64(i % 64)
	width := int64(1) << uint(exp-6)
	l := (int64(64) + sub) * width
	return float64(l), float64(l + width)
}

func (h *histogram) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	h.sum += float64(v)
}

// quantile interpolates linearly inside the bucket holding rank q·n.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return h.sum / float64(h.n)
}

func (h *histogram) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}
