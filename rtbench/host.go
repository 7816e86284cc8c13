package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rtmobile/internal/parallel"
	"rtmobile/internal/tensor"
)

// fingerprint identifies the host and the configuration a result was
// measured with; results are comparable only when it matches.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	CPU        string `json:"cpu"`
	ISA        string `json:"isa"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Workers    string `json:"rtmobile_workers"`
	Go         string `json:"go"`
	GOAMD64    string `json:"goamd64,omitempty"`
	Config     string `json:"config_digest"`
	Oracle     string `json:"canary_oracle_digest"`
}

// pinRuntime fixes the process's parallelism before any pool exists:
// GOMAXPROCS and RTMOBILE_WORKERS both at min(workers, nproc).
func pinRuntime(workers int) {
	n := min(workers, runtime.NumCPU())
	runtime.GOMAXPROCS(n)
	os.Setenv(parallel.EnvWorkers, strconv.Itoa(n))
}

func hostFingerprint(cfg config, workload string, seed uint64) fingerprint {
	f := tensor.CPUFeatures()
	isa := "portable"
	switch {
	case tensor.FastSIMD512():
		isa = "avx512f+avx512vl+avx2+fma"
	case tensor.FastSIMD():
		isa = "avx2+fma"
	case f.AVX2:
		isa = "avx2"
	}
	fp := fingerprint{
		Workload: workload, Seed: seed, CPU: cpuModel(), ISA: isa,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Workers: os.Getenv(parallel.EnvWorkers), Go: runtime.Version(),
		Config: cfg.digest(seed),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				fp.GOAMD64 = s.Value
			}
		}
	}
	return fp
}

// cpuModel reads the CPU model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// memBandwidthGBs is a STREAM-style copy probe: the best of several
// copies between two buffers far larger than the caches, counting the
// bytes read and written.
func memBandwidthGBs() float64 {
	const n = 64 << 20
	src, dst := make([]byte, n), make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src)
	best := 0.0
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		copy(dst, src)
		best = max(best, 2*n/time.Since(t0).Seconds()/1e9)
	}
	return best
}

// cpuTicks reads the machine's cumulative CPU time from /proc/stat: all
// ticks, and the steal ticks the hypervisor gave to other guests while
// this one's vCPUs were ready to run. Zeros where it is not available.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}
