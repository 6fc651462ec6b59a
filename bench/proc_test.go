package main

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestPeakRSSIsTheChilds holds 256 MB in this process and spawns ccsig on
// an empty pcap: the child's rusage high-water mark inherits ours across
// the vfork+exec, and the reported peak must not.
func TestPeakRSSIsTheChilds(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("VmHWM is Linux-only")
	}
	ballast := make([]byte, 256<<20)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	if hwm := vmHWMKB("self"); hwm < 256<<10 {
		t.Fatalf("spawner VmHWM %d KiB: the ballast is not resident", hwm)
	}
	empty := filepath.Join(t.TempDir(), "empty.pcap")
	if err := writeHeaderOnly(empty); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(empty)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e := testEnv(t, "", false)
	r, err := runProc(ccsigBin, serveArgs(e), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(ballast)
	if r.PeakRSSKB <= 0 || r.PeakRSSKB >= 64<<10 {
		t.Fatalf("reported child peak %d KiB, want (0, 64 MiB)", r.PeakRSSKB)
	}
}
