package main

import (
	"os"
	"testing"
)

func TestParseVmHWM(t *testing.T) {
	status := []byte("Name:\tdard\nVmPeak:\t  900000 kB\nVmHWM:\t  218180 kB\nVmRSS:\t  196504 kB\n")
	got, err := parseVmHWM(status)
	if err != nil || got != 218180 {
		t.Fatalf("parseVmHWM = %d, %v; want 218180", got, err)
	}
	for _, bad := range []string{"VmRSS:\t 1 kB\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name holds a space and a ')' — fields are counted
	// from the last one. utime is 1200 ticks, stime 34.
	stat := []byte("4242 (dard (x) w) S 1 4242 4242 0 -1 4194560 1500 0 0 0 1200 34 0 0 20 0 9 0 100 1000000 5000 18446744073709551615\n")
	got, err := parseStatCPU(stat)
	if err != nil || got != 1234 {
		t.Fatalf("parseStatCPU = %d, %v; want 1234", got, err)
	}
	if _, err := parseStatCPU([]byte("4242 (dard) S 1 2")); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
}

func TestProcfsSelf(t *testing.T) {
	if _, err := peakRSSMiB(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if _, err := cpuSeconds(os.Getpid()); err != nil {
		t.Fatal(err)
	}
}
