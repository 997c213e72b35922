package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMain intercepts the worker re-execution `sweep -workers N` and
// `hunt -workers N` perform: runWithFleet spawns os.Executable() — in
// tests, this test binary — with METALEAK_WORKER=1 and
// `worker -connect ADDR` args. The intercept turns that re-execution
// into a real metaleak worker process, so the distributed CLI tests
// exercise the genuine multi-process path: separate address spaces,
// the wire protocol, and the unix-socket rendezvous.
func TestMain(m *testing.M) {
	if os.Getenv("METALEAK_WORKER") == "1" && len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := run(context.Background(), os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "metaleak:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDispatchWorkersMatchPar is the CLI face of the byte-identity
// property: `sweep -workers 2` (two real subprocess workers over a
// private unix socket) emits exactly the bytes `sweep -par 2` does,
// in wide, long, and JSON renderings.
func TestDispatchWorkersMatchPar(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	base := []string{"sweep", "-configs", "sct", "-minor", "6,7", "-seeds", "2", "-bits", "8",
		"-set", "FastCrypto=true"}
	for _, render := range [][]string{nil, {"-long"}, {"-json"}} {
		args := append(append([]string{}, base...), render...)
		par, err := capture(t, func() error {
			return run(context.Background(), append(append([]string{}, args...), "-par", "2"))
		})
		if err != nil {
			t.Fatalf("%v -par 2: %v", render, err)
		}
		dist, err := capture(t, func() error {
			return run(context.Background(), append(append([]string{}, args...), "-workers", "2"))
		})
		if err != nil {
			t.Fatalf("%v -workers 2: %v", render, err)
		}
		if dist != par {
			t.Fatalf("%v: -workers 2 output differs from -par 2:\n--- par ---\n%s--- workers ---\n%s",
				render, par, dist)
		}
	}
}

// TestDispatchWorkersDisconnectFault: the chaos grammar's
// harness:disconnect kills the worker holding the named cell. With
// subprocess workers each process carries its own fault counters, so
// every lease of the marked cell dies: the cell exhausts its budget
// and quarantines with one fixed disconnect message per revoked
// lease, while every other cell's row is untouched and no cell is
// lost. (Invisible recovery — drop once, retry succeeds — needs the
// shared in-process harness and is covered by the chaos driver.)
func TestDispatchWorkersDisconnectFault(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	base := []string{"sweep", "-configs", "sct", "-seeds", "2", "-bits", "8",
		"-set", "FastCrypto=true"}
	clean, err := capture(t, func() error {
		return run(context.Background(), append(append([]string{}, base...), "-par", "2"))
	})
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := capture(t, func() error {
		return run(context.Background(), append(append([]string{}, base...),
			"-workers", "2", "-retries", "1", "-faults", "harness:disconnect@1x1"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cell 0's row (and the header) must be untouched; cell 1's row must
	// be the quarantine report with the fixed, worker-anonymous message.
	cleanLines := strings.SplitN(clean, "\n", 3)
	droppedLines := strings.SplitN(dropped, "\n", 3)
	if cleanLines[0] != droppedLines[0] || cleanLines[1] != droppedLines[1] {
		t.Fatalf("unaffected rows perturbed:\n--- clean ---\n%s--- dropped ---\n%s", clean, dropped)
	}
	want := "\"worker disconnected mid-lease\nworker disconnected mid-lease\",2,true"
	if !strings.Contains(droppedLines[2], want) {
		t.Fatalf("cell 1 not quarantined as expected:\n%s", dropped)
	}
	if n, want := strings.Count(dropped, "sct,"), strings.Count(clean, "sct,"); n != want {
		t.Fatalf("lost cells: %d rows, want %d:\n%s", n, want, dropped)
	}
}

// TestDispatchFlagValidation pins the CLI's guardrails around the
// distributed flags.
func TestDispatchFlagValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"sweep", "-workers", "2", "-par", "4"}, "drop -par"},
		{[]string{"sweep", "-lease-timeout", "5s"}, "only applies to distributed"},
		{[]string{"sweep", "-faults", "harness:disconnect@0x1"}, "distributed run"},
		{[]string{"sweep", "-token", "t0k"}, "add -workers"},
		{[]string{"worker"}, "-connect ADDR is required"},
		{[]string{"worker", "-connect", "127.0.0.1:1"}, "connect"},
		{[]string{"worker", "-connect", "127.0.0.1:1", "-hb", "0s"}, "must be positive"},
		{[]string{"worker", "-connect", "127.0.0.1:1", "-hb", "-1s"}, "must be positive"},
		{[]string{"worker", "-connect", "127.0.0.1:1", "-dial-retries", "-1"}, "must be >= 0"},
		{[]string{"serve", "-workers", "-1"}, "must be >= 0"},
		{[]string{"serve", "-revive", "-2"}, "must be >= 0"},
	}
	for _, tc := range cases {
		err := run(ctx, tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want mention of %q", tc.args, err, tc.want)
		}
	}
}
