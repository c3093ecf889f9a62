package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// host is the fingerprint every report carries: a timing means nothing
// without the machine and runtime settings it was taken on.
type host struct {
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	L2MB       float64 `json:"l2_mb"`
	LLCMB      float64 `json:"llc_mb"`
	RAMMB      float64 `json:"ram_mb"`
}

func readHost() host {
	h := host{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if h.GOGC == "" {
		h.GOGC = "default"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		h.CPUModel = fieldAfter(string(b), "model name")
	}
	if b, err := os.ReadFile("/proc/meminfo"); err == nil {
		h.RAMMB = parseSizeMB(strings.TrimSuffix(fieldAfter(string(b), "MemTotal"), " kB") + "K")
	}
	// The last-level cache is the highest-level data or unified cache
	// sysfs lists for cpu0.
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	topLevel := 0
	for _, d := range dirs {
		typ := readTrim(filepath.Join(d, "type"))
		level, _ := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if typ == "Instruction" {
			continue
		}
		mb := parseSizeMB(readTrim(filepath.Join(d, "size")))
		if level == 2 {
			h.L2MB = mb
		}
		if level > topLevel {
			topLevel, h.LLCMB = level, mb
		}
	}
	return h
}

// oversubscribed reports that two workers cannot run at once, so a
// two-way wall-clock comparison would time the scheduler.
func (h host) oversubscribed() bool { return h.Cores < 2 || h.GOMAXPROCS < 2 }

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// fieldAfter returns the value of the first "key : value" line of text.
func fieldAfter(text, key string) string {
	for _, line := range strings.Split(text, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// parseSizeMB reads sysfs sizes such as "2048K" or "260M" into MB (1e6
// bytes); anything unreadable is 0.
func parseSizeMB(s string) float64 {
	s = strings.TrimSpace(s)
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1024, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1024*1024, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1024*1024*1024, strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0
	}
	return v * mult / 1e6
}

// peakRSSMB is this process's own high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
