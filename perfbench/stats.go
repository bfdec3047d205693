package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the middle two for an
// even count), 0 for none.
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

// percentile is the nearest-rank p-th percentile of xs, 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// tailPercentiles are the candidates for a tail metric, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and which percentile that is. Below twenty samples
// no candidate qualifies and the median stands in (percentile 50).
func tail(xs []float64) (value, pct float64) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		if n*(1-p/100) >= 10 {
			return percentile(xs, p), p
		}
	}
	return percentile(xs, 50), 50
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procSample is the process's resource use at one instant.
type procSample struct {
	at    time.Time
	cpu   time.Duration // user + system CPU time
	steal time.Duration // CPU time the hypervisor withheld, all CPUs
	alloc uint64        // cumulative heap bytes allocated
	gc    uint32        // completed GC cycles
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		steal: stealTime(),
		alloc: m.TotalAlloc,
		gc:    m.NumGC,
	}
}

// userHz is the tick rate of /proc/stat's counters.
const userHz = 100

// stealTime is the machine's cumulative steal time from /proc/stat: the
// time its virtual CPUs were runnable but not run by the hypervisor.
// It reads 0 where the kernel reports none.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks * float64(time.Second) / userHz)
}

// stealAdjusted removes hypervisor steal from a unit's wall time. While
// the process was runnable its CPUs either ran it (cpu) or were stolen
// (steal), so the unit would have taken wall × cpu / (cpu + steal) on
// an uncontended machine. On a shared host steal swings between 0 and a
// third of the CPU time within minutes; unadjusted, that swing alone
// spreads run-to-run wall times by over 20 %.
func stealAdjusted(wall time.Duration, p0, p1 procSample) time.Duration {
	cpu, steal := p1.cpu-p0.cpu, p1.steal-p0.steal
	if cpu <= 0 || steal <= 0 {
		return wall
	}
	return time.Duration(float64(wall) * float64(cpu) / float64(cpu+steal))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// cpuModel is the first "model name" of /proc/cpuinfo ("unknown" when
// unreadable).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
