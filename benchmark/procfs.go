package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTick is USER_HZ: the unit of the utime/stime fields of
// /proc/<pid>/stat. It is fixed at 100 on every Linux ABI Go supports
// (the kernel scales to it whatever its own HZ), and Go has no sysconf
// to ask.
const clockTick = 100

// procCPUms returns the user+system CPU time a process has consumed, in
// milliseconds, over all its threads (fields 14 and 15 of
// /proc/<pid>/stat).
func procCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPUms(string(b))
}

func parseStatCPUms(stat string) (float64, error) {
	// The command name (field 2) is parenthesised and may itself hold
	// spaces and parentheses; fields are counted from the last ')'.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: malformed stat line")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: stat line has %d fields after the name", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stime: %w", err)
	}
	return float64(ut+st) * 1000 / clockTick, nil
}

// procPeakRSSMiB returns a process's resident-set high-water mark
// (VmHWM of /proc/<pid>/status) in MiB.
func procPeakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(b))
}

func parseStatusHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("procfs: no VmHWM line")
}
