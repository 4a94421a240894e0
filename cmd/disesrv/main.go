// Command disesrv is the concurrent debug service: it multiplexes many
// independent debug sessions over a pool of reusable simulated machines
// and serves the line-delimited JSON protocol (internal/serve) over TCP
// and/or stdio.
//
// Usage:
//
//	disesrv [-listen addr] [-stdio] [-workers N] [-quantum N] [-max-sessions N]
//	        [-machine preset] [-queue-depth N] [-push-buffer N]
//	        [-checkpoint-every N] [-read-timeout d] [-write-timeout d] [-drain-timeout d]
//	        [-pprof addr] [-log-format text|json] [-trace-depth N]
//
// -machine selects the default machine configuration preset for sessions
// that do not bring their own (clients pick per-session presets with the
// create op's "machine" field). -queue-depth bounds how many sessions may
// be runnable at once; a continue or step beyond it fails with the wire
// code "overloaded", and the client may retry. -push-buffer is the
// default queue depth of a subscribe op's subscription: how far a
// subscriber may fall behind before it is disconnected as a slow
// consumer. Its session never waits for it.
//
// -checkpoint-every N checkpoints each session every N quanta, enabling
// crash recovery (a panicked quantum rebuilds the session from its last
// checkpoint on a fresh machine) and the restore wire op. -read-timeout
// severs TCP clients idle past the duration; -write-timeout severs
// clients wedging the transport mid-write; severed clients' sessions stay
// attachable. On SIGTERM/SIGINT the server drains gracefully: it stops
// accepting connections and admissions (wire code "draining"), lets
// in-flight quanta finish, checkpoints live sessions, flushes outboxes,
// and exits — bounded by -drain-timeout.
//
// -pprof addr serves net/http/pprof on a profiling sidecar address
// (e.g. localhost:6060): live CPU/heap/goroutine profiles of a running
// service, the production half of scripts/profile_smoke.sh. The same
// sidecar serves the metrics registry in Prometheus text format at
// /metrics (also reachable in-band via the metrics wire op).
//
// -log-format picks the structured-log encoding on stderr: text
// (logfmt-style, the default) or json (one object per line, for log
// shippers). The service logs connection open/close with the remote
// address and per-connection op count, drain progress, and session
// fault/recovery events. -trace-depth sizes each session's scheduling
// trace ring (the trace wire op's timeline; default 256, -1 disables).
//
// With -listen, every accepted connection is an independent protocol
// stream; sessions outlive their connection and can be reattached from
// another one. With -stdio, the process itself is one protocol stream —
// handy under inetd-style supervisors and for piping:
//
//	$ echo '{"op":"ping"}' | disesrv -stdio
//	{"ok":true}
//
// An interactive TCP session with nc:
//
//	$ disesrv -listen :7070 &
//	$ nc localhost 7070
//	{"op":"create","program":".data\nv: .quad 0\n.text\n.entry main\nmain:\n la r1, v\n li r2, 3\nloop:\n stq r2, 0(r1)\n subq r2, #1, r2\n bne r2, loop\n halt\n"}
//	{"ok":true,"session":1,"state":"idle","entry":4096}
//	{"op":"watch","session":1,"sym":"v"}
//	{"ok":true}
//	{"op":"continue","session":1}
//	{"ok":true,"state":"running"}
//	{"op":"wait","session":1}
//	{"ok":true,"state":"idle","events":[{"kind":"watch","pc":4112,"watch":"v","value":3}]}
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof: registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/machine"
	"repro/internal/serve"
)

func main() {
	var (
		listen      = flag.String("listen", "", "TCP address to serve (e.g. :7070)")
		stdio       = flag.Bool("stdio", false, "serve one protocol stream on stdin/stdout")
		workers     = flag.Int("workers", 0, "scheduler workers (default GOMAXPROCS)")
		quantum     = flag.Uint64("quantum", 0, "instructions per scheduling slice (default 25000)")
		maxSessions = flag.Int("max-sessions", 0, "concurrent session cap (default 1024)")
		machineName = flag.String("machine", "default",
			"default machine preset ("+strings.Join(machine.Presets(), "|")+")")
		queueDepth = flag.Int("queue-depth", 0, "runnable-session bound; resumes past it are rejected (default max-sessions)")
		pushBuffer = flag.Int("push-buffer", 0, "default subscription queue depth: events a subscriber may fall behind (default 128)")
		checkpoint = flag.Int("checkpoint-every", 0, "checkpoint each session every N quanta (0 = off)")
		readTO     = flag.Duration("read-timeout", 0, "sever TCP clients idle past this (0 = none)")
		writeTO    = flag.Duration("write-timeout", 0, "sever TCP clients wedging a write past this (0 = none)")
		drainTO    = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain bound on SIGTERM/SIGINT")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
		logFormat  = flag.String("log-format", "text", "structured-log encoding on stderr (text|json)")
		traceDepth = flag.Int("trace-depth", 0, "per-session scheduling trace ring depth (0 = default 256, -1 = off)")
	)
	flag.Parse()
	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "disesrv:", err)
		os.Exit(2)
	}
	if !*stdio && *listen == "" {
		fmt.Fprintln(os.Stderr, "disesrv: need -listen addr, -stdio, or both")
		flag.Usage()
		os.Exit(2)
	}
	mcfg, ok := machine.PresetConfig(*machineName)
	if !ok {
		fmt.Fprintf(os.Stderr, "disesrv: unknown machine preset %q (have %s)\n",
			*machineName, strings.Join(machine.Presets(), ", "))
		os.Exit(2)
	}

	srv := serve.New(serve.Config{
		Workers:         *workers,
		Quantum:         *quantum,
		MaxSessions:     *maxSessions,
		Machine:         mcfg,
		QueueDepth:      *queueDepth,
		PushBuffer:      *pushBuffer,
		CheckpointEvery: *checkpoint,
		ReadTimeout:     *readTO,
		WriteTimeout:    *writeTO,
		TraceDepth:      *traceDepth,
		Logger:          logger,
	})
	defer srv.Close()

	if *pprofAddr != "" {
		// Observability sidecar: the default mux carries net/http/pprof's
		// handlers via its blank import; the metrics registry mounts next
		// to them. Serving it is best-effort — a taken port logs and the
		// service runs on unprofiled.
		http.Handle("/metrics", srv.Metrics())
		go func() {
			logger.Info("observability sidecar",
				"pprof", "http://"+*pprofAddr+"/debug/pprof/",
				"metrics", "http://"+*pprofAddr+"/metrics")
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("observability sidecar failed", "err", err)
			}
		}()
	}

	var wg sync.WaitGroup
	var l net.Listener
	if *listen != "" {
		var err error
		l, err = net.Listen("tcp", *listen)
		if err != nil {
			logger.Error("listen failed", "addr", *listen, "err", err)
			os.Exit(1)
		}
		logger.Info("listening", "addr", l.Addr().String(), "machine", *machineName)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A closed listener is the graceful-drain path, not an error.
			if err := srv.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Error("accept loop failed", "err", err)
			}
		}()
	}

	// Graceful drain: stop accepting connections, reject new admissions,
	// let in-flight quanta finish and checkpoint live sessions, then close
	// (which flushes and finalizes) and exit.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		logger.Info("signal received, draining", "signal", sig.String(), "bound", *drainTO)
		if l != nil {
			l.Close()
		}
		if !srv.Drain(*drainTO) {
			logger.Warn("drain timed out; closing anyway", "bound", *drainTO)
		}
		srv.Close()
		os.Exit(0)
	}()
	if *stdio {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.ServeConn(stdioConn{}); err != nil {
				logger.Error("stdio stream failed", "err", err)
			}
		}()
	}
	wg.Wait()
}

// newLogger builds the service's structured logger on stderr in the
// chosen encoding: text (logfmt-style) or json (one object per line).
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (have text, json)", format)
	}
}

// stdioConn glues stdin/stdout into one io.ReadWriteCloser. Close gives
// the protocol's slow-consumer disconnect something to sever, but only
// best-effort: stdin/stdout are inherited blocking descriptors outside
// the runtime poller, so a Write already parked in the kernel stays
// parked until the peer drains or exits — unlike TCP, where Close
// unblocks it. The next I/O after Close fails, so teardown completes
// once the pipe moves; push-heavy clients that may stall should prefer
// -listen.
type stdioConn struct{}

func (stdioConn) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (stdioConn) Write(p []byte) (int, error) { return os.Stdout.Write(p) }
func (stdioConn) Close() error {
	os.Stdin.Close()
	return os.Stdout.Close()
}
