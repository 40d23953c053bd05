package main

// Process accounting read from the kernel: CPU time and resident memory of
// the harness itself and of the programs it drives. Linux only, like the
// /proc files it reads.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux the Go toolchain supports).
const clockTick = 10 * time.Millisecond

// selfCPU returns the harness's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

// rusageCPU sums user and system time of a rusage record.
func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the user+system CPU time of process pid, summed over its
// threads.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may contain spaces; fields
	// resume after the last ')'. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procStatusMB returns a memory field of /proc/<pid>/status ("VmRSS",
// "VmHWM") in MB; pid 0 means the harness itself.
func procStatusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fs := strings.Fields(line[len(field)+1:])
		if len(fs) != 2 || fs[1] != "kB" {
			return 0, fmt.Errorf("%s: unexpected %s line %q", path, field, line)
		}
		kb, err := strconv.ParseFloat(fs[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %s line", path, field)
}
