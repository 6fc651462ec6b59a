package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"tcpsig/internal/checkpoint"
	"tcpsig/internal/obs"
	"tcpsig/internal/parallel"
	"tcpsig/internal/telemetry"
)

// sweepFlags is the flag block the long-running experiment commands
// (testbed, figures, faults, conformance) share: parallelism, durable
// progress, the opt-in admin plane and, where registered, host-process
// profiles. It also owns their failure exits, so every drain prints the
// same resume hint and every exit flushes active profiles.
type sweepFlags struct {
	fs        *flag.FlagSet
	jobs      *int
	ckptDir   *string
	resume    *bool
	chunk     *int
	adminAddr *string

	// Profile paths; nil unless withProfiles registered the flags.
	cpuprofile, memprofile, traceFile *string

	admin        *telemetry.Admin
	stopProfiles func()
}

func addSweepFlags(fs *flag.FlagSet) *sweepFlags {
	return &sweepFlags{
		fs:           fs,
		jobs:         fs.Int("j", 0, "parallel sim runs (0 = all cores, 1 = serial; output is identical either way)"),
		ckptDir:      fs.String("checkpoint", "", "persist sweep progress under this directory"),
		resume:       fs.Bool("resume", false, "continue an interrupted run from -checkpoint"),
		chunk:        fs.Int("chunk", 0, "runs per checkpoint chunk (0 = default)"),
		adminAddr:    adminFlag(fs),
		stopProfiles: func() {},
	}
}

// adminFlag registers -admin, the address of the opt-in wall-clock admin
// plane (see telemetry.StartAdmin).
func adminFlag(fs *flag.FlagSet) *string {
	return fs.String("admin", "", "serve live /metrics, /progress and /debug/pprof on this address (e.g. :9100)")
}

// withProfiles also registers -cpuprofile, -memprofile and -trace.
func (f *sweepFlags) withProfiles() *sweepFlags {
	f.cpuprofile = f.fs.String("cpuprofile", "", "write a CPU profile to this file")
	f.memprofile = f.fs.String("memprofile", "", "write a heap profile to this file on exit")
	f.traceFile = f.fs.String("trace", "", "write a runtime execution trace to this file")
	return f
}

// parse parses args; -resume without -checkpoint is a usage error.
func (f *sweepFlags) parse(args []string) {
	f.fs.Parse(args)
	if *f.resume && *f.ckptDir == "" {
		badUsage(f.fs, "-resume requires -checkpoint")
	}
}

func (f *sweepFlags) workers() int { return parallel.Workers(*f.jobs) }

// start starts the requested profiles and the admin plane (nil and inert
// without -admin), installs the SIGINT/SIGTERM discipline and returns the
// checkpoint root, observed by the admin plane. Without -checkpoint the
// root is nil: the run stays in memory and the first signal exits at once.
// Callers defer stop.
func (f *sweepFlags) start() (*telemetry.Admin, *checkpoint.Spec) {
	if f.cpuprofile != nil {
		stop, err := obs.StartProfiles(*f.cpuprofile, *f.memprofile, *f.traceFile)
		f.check(err)
		f.stopProfiles = stop
	}
	admin, err := telemetry.StartAdmin(*f.adminAddr)
	f.check(err)
	f.admin = admin
	intr := checkpoint.NotifyInterrupt(*f.ckptDir != "", func() { f.stopProfiles() })
	if *f.ckptDir == "" {
		return admin, nil
	}
	spec := &checkpoint.Spec{
		Dir: *f.ckptDir, Resume: *f.resume, ChunkSize: *f.chunk,
		Interrupt: intr,
		Log:       func(format string, args ...any) { slog.Info(fmt.Sprintf(format, args...)) },
	}
	admin.Observe(spec)
	return admin, spec
}

// stop flushes active profiles and shuts the admin plane down.
func (f *sweepFlags) stop() {
	f.stopProfiles()
	f.admin.Close()
}

// check exits on a failed run: a checkpointed drain exits 3 with the
// resume invocation, any other error exits 1. Both flush profiles first.
func (f *sweepFlags) check(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr) // end any \r progress line
	f.stopProfiles()
	if errors.Is(err, checkpoint.ErrInterrupted) {
		slog.Warn("interrupted; progress checkpointed", "err", err,
			"resume", fmt.Sprintf("ccsig %s -checkpoint %s -resume (plus the same flags)", f.fs.Name(), *f.ckptDir))
		os.Exit(3)
	}
	fmt.Fprintf(os.Stderr, "ccsig %s: %v\n", f.fs.Name(), err)
	os.Exit(1)
}
