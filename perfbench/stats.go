package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for an empty
// slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is the 0.5 nearest-rank quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ms and us convert a duration to fractional milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeSetup runs setup n times and returns the median wall time in seconds
// together with the last set-up's value; earlier ones are torn down. Each
// set-up starts from a collected heap, so garbage left by the previous one
// is not charged to it.
func timeSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// fingerprint identifies the machine a result was measured on. Results with
// different IDs are never compared.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	AVX2       bool   `json:"avx2"`
	GoVersion  string `json:"go_version"`
	MemTotalMB int    `json:"mem_total_mb"`
	ID         string `json:"id"`
}

func readFingerprint() fingerprint {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(key) {
			case "model name":
				if fp.CPUModel == "" {
					fp.CPUModel = strings.TrimSpace(val)
				}
			case "flags":
				fp.AVX2 = fp.AVX2 || strings.Contains(" "+val+" ", " avx2 ")
			}
		}
		f.Close()
	}
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err == nil {
		fp.MemTotalMB = int(uint64(si.Totalram) * uint64(si.Unit) >> 20)
	}
	// Total memory is rounded to GiB so the ID survives the few MiB the
	// kernel reserves differently between boots.
	id := fmt.Sprintf("%d|%d|%s|%t|%s|%d", fp.NumCPU, fp.GOMAXPROCS, fp.CPUModel, fp.AVX2, fp.GoVersion, (fp.MemTotalMB+512)>>10)
	sum := sha256.Sum256([]byte(id))
	fp.ID = hex.EncodeToString(sum[:6])
	return fp
}
