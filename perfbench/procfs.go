package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go targets.
const clockTicks = 100

// peakRSSMiB reads a live process's VmHWM (peak resident set size).
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(b)
	if err != nil {
		return 0, fmt.Errorf("pid %d: %w", pid, err)
	}
	return float64(kb) / 1024, nil
}

// resetPeakRSS restarts a live process's VmHWM from its current RSS, so
// the next read gives the peak of one window.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// parseVmHWM extracts the "VmHWM:  123 kB" line of /proc/<pid>/status.
func parseVmHWM(status []byte) (int64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// cpuSeconds reads a live process's user+system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(b)
	if err != nil {
		return 0, fmt.Errorf("pid %d: %w", pid, err)
	}
	return float64(ticks) / clockTicks, nil
}

// parseStatCPU sums utime and stime (fields 14 and 15) of a
// /proc/<pid>/stat line. The command name in field 2 may hold spaces
// and parentheses, so fields are counted from its last ')'.
func parseStatCPU(stat []byte) (int64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	f := bytes.Fields(stat[i+1:])
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the command", len(f))
	}
	utime, err := strconv.ParseInt(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("utime: %w", err)
	}
	stime, err := strconv.ParseInt(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stime: %w", err)
	}
	return utime + stime, nil
}
