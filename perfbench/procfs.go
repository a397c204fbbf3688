package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// userHZ is the unit of the CPU times in /proc/<pid>/stat. Linux fixes
// it at 100 for every architecture it reports to user space.
const userHZ = 100

// parseStatCPU returns user+system CPU seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(data string) (float64, error) {
	i := strings.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(data[i+1:])
	// After the command: state(3) ppid pgrp session tty tpgid flags minflt
	// cminflt majflt cmajflt utime(14) stime(15).
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return float64(utime+stime) / userHZ, nil
}

// parseKeyed returns the first number after "key:" in a /proc file made
// of "key: value [unit]" lines (status, io).
func parseKeyed(data, key string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(data))
	for sc.Scan() {
		k, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: no value", key)
		}
		return strconv.ParseFloat(f[0], 64)
	}
	return 0, fmt.Errorf("%s: not found", key)
}

// parseHWMMiB returns the peak resident set (VmHWM) in MiB from the
// contents of /proc/<pid>/status.
func parseHWMMiB(data string) (float64, error) {
	kb, err := parseKeyed(data, "VmHWM")
	return kb / 1024, err
}

// parseWchar returns the bytes a process has passed to write-like
// system calls, from the contents of /proc/<pid>/io.
func parseWchar(data string) (float64, error) { return parseKeyed(data, "wchar") }

func readProc(pid int, file string) (string, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	return string(data), err
}

func procCPU(pid int) (float64, error) {
	data, err := readProc(pid, "stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

func procHWM(pid int) (float64, error) {
	data, err := readProc(pid, "status")
	if err != nil {
		return 0, err
	}
	return parseHWMMiB(data)
}

func procWchar(pid int) (float64, error) {
	data, err := readProc(pid, "io")
	if err != nil {
		return 0, err
	}
	return parseWchar(data)
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlay"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}
