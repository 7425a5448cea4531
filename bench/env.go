package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is recorded in every result so two result files can be
// judged comparable before their numbers are.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"goVersion"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	LoadAvg1   float64 `json:"loadAvg1"`
	// Noisy marks a run started on a busy machine (1-min load average
	// above half the cores): its timings are suspect and -compare says so.
	Noisy bool `json:"noisy"`
	// Transport states what the bytes crossed, so nobody reads a
	// loopback figure as a network figure.
	Transport string `json:"transport"`
}

// captureEnvironment records the machine. load1, when non-negative,
// replaces the load average read now (see runConfig.load1).
func captureEnvironment(load1 float64) environment {
	e := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Transport:  "in-process over loopback; no real link is crossed",
	}
	// The acceptance driver runs from an exported tree with no .git; the
	// commit is then genuinely unknown.
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	e.LoadAvg1 = load1
	if load1 < 0 {
		e.LoadAvg1 = loadAverage()
	}
	e.Noisy = e.LoadAvg1 > 0.5*float64(e.NProc)
	return e
}

// loadAverage reads the 1-minute load average (0 when unreadable).
func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPeakMiB reads the process's resident-set high-water mark (VmHWM).
func rssPeakMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
