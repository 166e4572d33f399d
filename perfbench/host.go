package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies what a run measured and where. BondConns and
// WindowMode are read from the grid after the run. Two result sets
// are comparable only if their fingerprints agree on everything but the
// source (Commit, Tree), the seed and what the host was doing
// (TimeWaitStart, StealShare).
type fingerprint struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Seconds       int     `json:"seconds"`
	DelayMs       float64 `json:"one_way_delay_ms"`
	BondConns     int     `json:"bond_conns"`
	WindowMode    string  `json:"window_mode"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"nproc"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	Tree          string  `json:"tree"`
	TimeWaitStart int     `json:"tcp_time_wait_start"`
	PortRange     int     `json:"ephemeral_ports"`
	// StealShare is the share of the host's CPU time its hypervisor
	// gave to other guests during the measured window. Every timing
	// grows with it, so it tells a busy host from slower code.
	StealShare float64 `json:"cpu_steal_share"`
}

// comparable returns the fields two sides of a comparison must share.
func (f fingerprint) comparable() string {
	return fmt.Sprintf("%s|%d|%g|%d|%s|%d|%d|%s|%s",
		f.Workload, f.Seconds, f.DelayMs, f.BondConns, f.WindowMode,
		f.GOMAXPROCS, f.NumCPU, f.CPUModel, f.GoVersion)
}

func hostFingerprint(workload string, seed int64, seconds int, delay time.Duration) fingerprint {
	return fingerprint{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		DelayMs:    float64(delay) / float64(time.Millisecond),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Tree:       treeHash("."),
		PortRange:  ephemeralPorts(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the checked-out commit when the working directory is
// a git checkout, and "none" otherwise (Tree still identifies the
// source).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// treeHash hashes the program's Go sources and go.mod under root,
// leaving out the benchmark and build outputs.
func treeHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// timeWait reads the host's TCP sockets in TIME-WAIT.
func timeWait() int {
	data, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "TCP:" {
			continue
		}
		for i := 1; i+1 < len(fields); i += 2 {
			if fields[i] == "tw" {
				n, _ := strconv.Atoi(fields[i+1])
				return n
			}
		}
	}
	return -1
}

// ephemeralPorts returns the size of the local port range.
func ephemeralPorts() int {
	data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err != nil {
		return 28232 // the Linux default range, 32768-60999
	}
	f := strings.Fields(string(data))
	if len(f) != 2 {
		return 28232
	}
	lo, err1 := strconv.Atoi(f[0])
	hi, err2 := strconv.Atoi(f[1])
	if err1 != nil || err2 != nil || hi < lo {
		return 28232
	}
	return hi - lo + 1
}

// awaitTimeWait waits, at most limit, until fewer than threshold TCP
// sockets sit in TIME-WAIT, so a run does not inherit the port pressure
// of the run before it. It returns the count it started with.
func awaitTimeWait(threshold int, limit time.Duration) int {
	start := timeWait()
	deadline := time.Now().Add(limit)
	for n := start; n >= threshold && time.Now().Before(deadline); n = timeWait() {
		time.Sleep(500 * time.Millisecond)
	}
	return start
}

// cpuStat returns the host's stolen and total CPU time so far, in clock
// ticks, from the cpu line of /proc/stat (0, 0 if unreadable).
func cpuStat() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest ...];
	// guest time is already counted in user.
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		n, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
	}
	steal, _ = strconv.ParseInt(f[8], 10, 64)
	return steal, total
}

// peakRSSMiB returns the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
