package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"metaleak/internal/dispatch"
	"metaleak/internal/experiments"
	"metaleak/internal/runner"
)

// This file is the CLI face of distributed sweeps: the `worker`
// subcommand (one process pulling leased cells from a coordinator) and
// the coordinator-side glue `sweep -workers N` / `sweep -listen ADDR`
// uses to spawn and supervise local workers.

// workerCmd attaches this process to a coordinator: dial, hand the job
// to the engine its Kind names (sweep or hunt), then pull and run cells
// until drained. It is started implicitly by `sweep -workers N` /
// `hunt -workers N` (over a private unix socket) or explicitly on other
// machines against -listen.
func workerCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	connect := fs.String("connect", "", "coordinator address (host:port for TCP, unix:PATH or /path for a unix socket)")
	id := fs.String("id", "", "worker name in coordinator logs (default w<pid>)")
	hb := fs.Duration("hb", time.Second, "heartbeat interval (keep well under the coordinator's -lease-timeout)")
	token := fs.String("token", os.Getenv("METALEAK_TOKEN"), "shared auth token the coordinator requires (default $METALEAK_TOKEN; prefer the env var — argv is visible in ps)")
	dialRetries := fs.Int("dial-retries", 0, "extra dial attempts with exponential backoff before giving up (0 = single attempt)")
	if _, err := parseInterleaved(fs, args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("worker: -connect ADDR is required")
	}
	if *hb <= 0 {
		return fmt.Errorf("worker: -hb %v: the heartbeat interval must be positive (it is the coordinator's only liveness signal)", *hb)
	}
	if *dialRetries < 0 {
		return fmt.Errorf("worker: -dial-retries %d: must be >= 0", *dialRetries)
	}
	if *id == "" {
		*id = fmt.Sprintf("w%d", os.Getpid())
	}
	conn, err := dispatch.DialRetry(ctx, *connect, *dialRetries, runner.ExpBackoff(100*time.Millisecond))
	if err != nil {
		return err
	}
	w := &dispatch.Worker{ID: *id, Heartbeat: *hb, Token: *token, Init: experiments.NewJobSession}
	return w.Run(ctx, conn)
}

// runWithFleet sets up a coordinator worker fleet and hands its
// listener to body (which takes ownership of it): listening on listen
// for remote workers, spawning `workers` local worker processes (this
// binary re-invoked as `metaleak worker` over a private unix socket),
// or both. With only local workers, all of them exiting before body
// returns cancels the run instead of hanging the coordinator forever.
// Both distributed engines — sweep and hunt — run through it; the
// engine is picked worker-side by the job's Kind (NewJobSession).
func runWithFleet(ctx context.Context, workers int, listen, token string, body func(ctx context.Context, ln net.Listener) error) error {
	var ln net.Listener
	addr := listen
	if listen != "" {
		var err error
		ln, err = dispatch.Listen(listen)
		if err != nil {
			return err
		}
	} else {
		dir, err := os.MkdirTemp("", "metaleak-dispatch-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		addr = filepath.Join(dir, "coord.sock")
		ln, err = dispatch.Listen(addr)
		if err != nil {
			return err
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var cmds []*exec.Cmd
	if workers > 0 {
		self, err := os.Executable()
		if err != nil {
			ln.Close()
			return err
		}
		// METALEAK_WORKER lets a test binary recognize the re-invocation
		// (TestMain intercepts it); the production binary ignores it. The
		// auth token travels by env, not argv — argv is visible in ps.
		env := []string{"METALEAK_WORKER=1"}
		if token != "" {
			env = append(env, "METALEAK_TOKEN="+token)
		}
		cmds, err = dispatch.SpawnLocal(ctx, workers, self,
			[]string{"worker", "-connect", addr}, env, os.Stderr)
		if err != nil {
			ln.Close()
			return err
		}
		go func() {
			for _, c := range cmds {
				c.Wait()
			}
			if listen == "" {
				// No remote workers can ever attach: a grid with work left
				// and no workers would wait forever.
				cancel()
			}
		}()
	}
	return body(ctx, ln)
}
