package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procRun is one finished child process as seen from outside.
type procRun struct {
	Start     time.Time
	Wall      time.Duration
	User, Sys time.Duration
	PeakRSSKB int64
	Stdout    []byte
	LineAt    []time.Time // when each stdout line was read
	Reads     int         // reads of stdout that returned data
	Stderr    []byte
	InputPos  []posSample // how far the child had read a file stdin, over time
}

// posSample is the child's stdin file offset at one moment.
type posSample struct {
	At  time.Time
	Pos int64
}

// readAt is when the child's reads of its stdin file first covered byte
// offset off, interpolated between samples.
func (p procRun) readAt(off int64) time.Time {
	s := p.InputPos
	i := sort.Search(len(s), func(i int) bool { return s[i].Pos >= off })
	switch {
	case i == len(s):
		return p.Start.Add(p.Wall)
	case i == 0:
		return s[0].At
	}
	a, b := s[i-1], s[i]
	frac := float64(off-a.Pos) / float64(b.Pos-a.Pos)
	return a.At.Add(time.Duration(frac * float64(b.At.Sub(a.At))))
}

// CPU is the child's user plus system time.
func (p procRun) CPU() time.Duration { return p.User + p.Sys }

// pollInterval is how often a running child's VmHWM and stdin offset are
// sampled.
const pollInterval = 2 * time.Millisecond

// runProc runs bin to completion. Its stdin is the file in, whose read
// offset is sampled as the child runs, or, when feed is non-nil, a pipe
// that feed writes and runProc closes. Stdout is read in place,
// timestamping every line as it arrives; stderr is collected. A non-zero
// exit is an error that carries the child's stderr.
func runProc(bin string, args []string, in *os.File, feed func(io.Writer) error) (procRun, error) {
	cmd := exec.Command(bin, args...)
	var stdin io.WriteCloser
	var err error
	if feed != nil {
		if stdin, err = cmd.StdinPipe(); err != nil {
			return procRun{}, err
		}
	} else {
		cmd.Stdin = in
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return procRun{}, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr

	var r procRun
	r.Start = time.Now()
	if err := cmd.Start(); err != nil {
		return procRun{}, err
	}
	// Read after Start returns, so after the exec: the child's mm was
	// inherited from this process up to that point (vfork), so its rusage
	// high-water mark can include ours.
	spawnerHWM := vmHWMKB("self")
	stopPoll := make(chan struct{})
	polled := make(chan polls, 1)
	r.InputPos = []posSample{{At: r.Start}}
	go poll(cmd.Process.Pid, in != nil, stopPoll, polled)

	feedErr := make(chan error, 1)
	if feed != nil {
		go func() {
			err := feed(stdin)
			if cerr := stdin.Close(); err == nil {
				err = cerr
			}
			feedErr <- err
		}()
	} else {
		feedErr <- nil
	}

	buf := make([]byte, 64<<10)
	for {
		n, rerr := stdout.Read(buf)
		if n > 0 {
			at := time.Now()
			r.Reads++
			for _, b := range buf[:n] {
				if b == '\n' {
					r.LineAt = append(r.LineAt, at)
				}
			}
			r.Stdout = append(r.Stdout, buf[:n]...)
		}
		if rerr != nil {
			break
		}
	}
	ferr := <-feedErr
	werr := cmd.Wait()
	r.Wall = time.Since(r.Start)
	close(stopPoll)
	pl := <-polled
	r.PeakRSSKB = pl.peakKB
	r.InputPos = append(r.InputPos, pl.pos...)
	r.Stderr = stderr.Bytes()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.User = time.Duration(ru.Utime.Nano())
		r.Sys = time.Duration(ru.Stime.Nano())
		// ru.Maxrss is max(our high-water mark at exec, the child's own);
		// above ours it can only be the child's, and it also covers any
		// growth after the last poll.
		if ru.Maxrss > spawnerHWM && ru.Maxrss > r.PeakRSSKB {
			r.PeakRSSKB = ru.Maxrss
		}
	}
	if werr != nil {
		return r, fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), werr, bytes.TrimSpace(r.Stderr))
	}
	if ferr != nil {
		return r, fmt.Errorf("feeding %s: %w", bin, ferr)
	}
	if r.PeakRSSKB <= 0 {
		return r, errors.New("no peak RSS sample for " + bin)
	}
	return r, nil
}

// polls is what poll saw of a running child.
type polls struct {
	peakKB int64
	pos    []posSample
}

// poll samples the child's VmHWM and, with pos, its stdin offset until
// stop closes, then sends what it saw.
func poll(pid int, pos bool, stop <-chan struct{}, out chan<- polls) {
	var p polls
	id := strconv.Itoa(pid)
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	for {
		if v := vmHWMKB(id); v > p.peakKB {
			p.peakKB = v
		}
		if pos {
			if off, ok := stdinOffset(id); ok {
				p.pos = append(p.pos, posSample{At: time.Now(), Pos: off})
			}
		}
		select {
		case <-stop:
			out <- p
			return
		case <-tick.C:
		}
	}
}

// stdinOffset reads the file offset of the process's fd 0.
func stdinOffset(pid string) (int64, bool) {
	b, err := os.ReadFile("/proc/" + pid + "/fdinfo/0")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "pos:"); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// vmHWMKB returns the VmHWM line of /proc/<pid>/status in KiB, or 0 when
// it cannot be read (the process has exited, or this is not Linux).
func vmHWMKB(pid string) int64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0
			}
			return v
		}
	}
	return 0
}

// timeLaunches runs bin n times with stdin from the file in and returns
// each launch's wall time, start to exit. env is added to the environment.
func timeLaunches(n int, bin string, args []string, in string, env ...string) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdin = f
		if len(env) > 0 {
			cmd.Env = append(os.Environ(), env...)
		}
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		start := time.Now()
		err = cmd.Run()
		d := time.Since(start)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %v: %s", bin, err, bytes.TrimSpace(stderr.Bytes()))
		}
		out = append(out, d)
	}
	return out, nil
}
