package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"grover/internal/vm"
)

// processStart is as close to process start as Go code gets; the first
// set-up is timed from here.
var processStart = time.Now()

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// meter measures the part of a pass between start and stop: wall time,
// CPU time and heap bytes allocated. start collects garbage first so a
// pass does not pay for the one before it.
type meter struct {
	t0     time.Time
	cpu0   float64
	alloc0 uint64
	gc0    uint32
	pause0 uint64

	wallS, cpuS, allocMB, gcPauseMS float64
	numGC                           uint32
}

func (m *meter) start() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc0, m.gc0, m.pause0 = ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	m.cpu0 = cpuSeconds()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wallS = time.Since(m.t0).Seconds()
	m.cpuS = cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocMB = float64(ms.TotalAlloc-m.alloc0) / (1 << 20)
	m.numGC = ms.NumGC - m.gc0
	m.gcPauseMS = float64(ms.PauseTotalNs-m.pause0) / 1e6
}

// fingerprint describes the host and build a ledger row was taken on.
func fingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s engines=%v",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		runtime.GOOS, runtime.GOARCH, commit(), vm.Backends())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from the enclosing repository's
// .git directory without starting git; a plain source tree says unknown.
func commit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if name, ok := strings.CutPrefix(ref, "ref: "); ok {
				b, err := os.ReadFile(filepath.Join(dir, ".git", name))
				if err != nil {
					return "unknown"
				}
				ref = strings.TrimSpace(string(b))
			}
			return ref
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
