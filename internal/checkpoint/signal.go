package checkpoint

import (
	"log/slog"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
)

// Interrupt is the graceful-drain flag Run polls between chunks. It is
// set from a signal-handler goroutine and read on the sweep goroutine,
// hence the atomic.
type Interrupt struct {
	flag atomic.Bool
}

// Interrupted reports whether a drain has been requested. Nil-safe, so a
// sweep without signal handling passes a nil *Interrupt.
func (i *Interrupt) Interrupted() bool {
	return i != nil && i.flag.Load()
}

// Trigger requests a drain. Exposed so tests can interrupt a sweep
// without delivering real signals.
func (i *Interrupt) Trigger() {
	if i != nil {
		i.flag.Store(true)
	}
}

// NotifyInterrupt installs the CLI SIGINT/SIGTERM discipline.
//
// With drain=true the first signal only sets the returned Interrupt — the
// sweep finishes its in-flight chunk, flushes the manifest, and exits
// resumable — while a second signal stops waiting and exits immediately.
// With drain=false (no checkpoint to keep consistent) the first signal
// exits immediately. Every immediate exit first runs cleanup (nil ok) so
// profile and trace files are flushed, then exits with status 130.
func NotifyInterrupt(drain bool, cleanup func()) *Interrupt {
	intr := &Interrupt{}
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		if drain {
			slog.Warn("draining: finishing the in-flight chunk; interrupt again to exit now",
				"signal", sig.String(), "resumable", true)
			intr.Trigger()
			sig = <-ch
		}
		slog.Warn("exiting", "signal", sig.String(), "status", 130)
		if cleanup != nil {
			cleanup()
		}
		os.Exit(130)
	}()
	return intr
}
