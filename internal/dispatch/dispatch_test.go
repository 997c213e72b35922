package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"
)

// The integration tests run real coordinators and workers over loopback
// TCP. The job is trivial arithmetic — payload of cell i is i*Mult — so
// the tests exercise scheduling, revocation, and retry without the
// sweep engine's weight; the sweep-level byte-identity property lives
// in internal/experiments.

// testJob is the opaque job spec of the test workers.
type testJob struct {
	Mult    int
	SleepMs int // per-cell think time (subprocess kill test)
}

// testSession builds a Session computing cell*Mult, failing the cells
// in failCells until their per-session counters expire.
func testSession(job testJob, failCells map[int]int, drop func(int) bool) Session {
	var mu sync.Mutex
	fails := map[int]int{}
	return Session{
		Drop: drop,
		Run: func(ctx context.Context, cell int) (json.RawMessage, error) {
			if job.SleepMs > 0 {
				time.Sleep(time.Duration(job.SleepMs) * time.Millisecond)
			}
			mu.Lock()
			fails[cell]++
			n := fails[cell]
			mu.Unlock()
			if failCells != nil && n <= failCells[cell] {
				return nil, fmt.Errorf("cell %d planned failure %d", cell, n)
			}
			return json.Marshal(cell * job.Mult)
		},
	}
}

// startWorker attaches one in-process worker to addr in a goroutine.
func startWorker(t *testing.T, ctx context.Context, addr, id string, sess Session) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	w := &Worker{ID: id, Heartbeat: 20 * time.Millisecond,
		Init: func(json.RawMessage) (Session, error) { return sess, nil }}
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := Dial(addr)
		if err != nil {
			return
		}
		w.Run(ctx, conn)
	}()
	return &wg
}

// runOut is one coordinator Run's result.
type runOut struct {
	settled map[int]Settled
	err     error
}

// runInBackground starts co.Run on ln and returns where its result
// arrives.
func runInBackground(ctx context.Context, co *Coordinator, ln net.Listener) <-chan runOut {
	ran := make(chan runOut, 1)
	go func() {
		settled, err := co.Run(ctx, ln)
		ran <- runOut{settled, err}
	}()
	return ran
}

func grid(n int) []int {
	cells := make([]int, n)
	for i := range cells {
		cells[i] = i
	}
	return cells
}

func mustListen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func jobSpec(t *testing.T, job testJob) json.RawMessage {
	t.Helper()
	spec, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkPayloads asserts every cell settled successfully with i*mult.
func checkPayloads(t *testing.T, settled map[int]Settled, n, mult int) {
	t.Helper()
	if len(settled) != n {
		t.Fatalf("settled %d cells, want %d", len(settled), n)
	}
	for i := 0; i < n; i++ {
		s, ok := settled[i]
		if !ok {
			t.Fatalf("cell %d never settled", i)
		}
		if s.Err != "" {
			t.Fatalf("cell %d failed: %s", i, s.Err)
		}
		var v int
		if err := json.Unmarshal(s.Payload, &v); err != nil || v != i*mult {
			t.Fatalf("cell %d payload = %s (err %v), want %d", i, s.Payload, err, i*mult)
		}
	}
}

// TestDispatchAllCells: every cell settles exactly once for 1 and 3
// workers, and OnSettled fires once per cell.
func TestDispatchAllCells(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		ln := mustListen(t)
		var mu sync.Mutex
		seen := map[int]int{}
		co := NewCoordinator(jobSpec(t, testJob{Mult: 3}), grid(20), Options{
			OnSettled: func(cell int, s Settled) { mu.Lock(); seen[cell]++; mu.Unlock() },
		})
		var wgs []*sync.WaitGroup
		for i := 0; i < workers; i++ {
			wgs = append(wgs, startWorker(t, ctx, ln.Addr().String(), fmt.Sprintf("w%d", i),
				testSession(testJob{Mult: 3}, nil, nil)))
		}
		settled, err := co.Run(ctx, ln)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkPayloads(t, settled, 20, 3)
		for cell, n := range seen {
			if n != 1 {
				t.Errorf("workers=%d: OnSettled fired %d times for cell %d", workers, n, cell)
			}
		}
		if len(seen) != 20 {
			t.Errorf("workers=%d: OnSettled covered %d cells, want 20", workers, len(seen))
		}
		cancel()
		for _, wg := range wgs {
			wg.Wait()
		}
	}
}

// TestDispatchSilentPeer: a peer that connects and never speaks (a
// port scanner, a worker that died before its hello) is never
// registered as a worker, yet Run must return once the grid settles and
// close that connection too, not wait forever on its reader.
func TestDispatchSilentPeer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := mustListen(t)
	// Dialled first, so the accept loop takes it before the worker.
	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	wg := startWorker(t, ctx, ln.Addr().String(), "healthy", testSession(testJob{Mult: 5}, nil, nil))
	ran := runInBackground(ctx, NewCoordinator(jobSpec(t, testJob{Mult: 5}), grid(2), Options{}), ln)
	select {
	case out := <-ran:
		if out.err != nil {
			t.Fatal(out.err)
		}
		checkPayloads(t, out.settled, 2, 5)
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return with a silent peer connected")
	}
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("silent peer's connection still open after Run: read err %v", err)
	}
	cancel()
	wg.Wait()
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// TestDispatchDropReLease: a worker that abruptly drops while holding a
// lease loses the cell to the surviving worker; the settled cell
// records the revocation as one consumed attempt.
func TestDispatchDropReLease(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := mustListen(t)
	co := NewCoordinator(jobSpec(t, testJob{Mult: 2}), grid(10), Options{MaxLeases: 2})
	dropped := false
	var mu sync.Mutex
	dropOnce := func(cell int) bool {
		mu.Lock()
		defer mu.Unlock()
		if cell == 4 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	// Both workers share the one-shot hook: the steal schedule decides
	// which of them is dealt cell 4, so pinning the hook to one worker
	// would make the test hinge on that race. Whichever worker holds
	// the lease drops; the other survives and absorbs the re-deal.
	wgA := startWorker(t, ctx, ln.Addr().String(), "dropper", testSession(testJob{Mult: 2}, nil, dropOnce))
	wgB := startWorker(t, ctx, ln.Addr().String(), "survivor", testSession(testJob{Mult: 2}, nil, dropOnce))
	settled, err := co.Run(ctx, ln)
	if err != nil {
		t.Fatal(err)
	}
	checkPayloads(t, settled, 10, 2)
	mu.Lock()
	wasDropped := dropped
	mu.Unlock()
	if !wasDropped {
		t.Fatal("drop hook never fired")
	}
	s := settled[4]
	if s.Attempts != 2 || len(s.Errs) != 1 || s.Errs[0] != DisconnectErr {
		t.Errorf("re-leased cell: attempts=%d errs=%v, want 2 attempts with [%q]", s.Attempts, s.Errs, DisconnectErr)
	}
	cancel()
	wgA.Wait()
	wgB.Wait()
}

// TestDispatchQuarantineJoinsErrors: a cell that fails every lease
// settles with all attempt errors joined in attempt order.
func TestDispatchQuarantineJoinsErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := mustListen(t)
	co := NewCoordinator(jobSpec(t, testJob{Mult: 5}), grid(6), Options{MaxLeases: 3})
	// Cell 2 fails forever; cell 3 fails once then recovers.
	sess := testSession(testJob{Mult: 5}, map[int]int{2: 99, 3: 1}, nil)
	wg := startWorker(t, ctx, ln.Addr().String(), "w0", sess)
	settled, err := co.Run(ctx, ln)
	if err != nil {
		t.Fatal(err)
	}
	s := settled[2]
	want := "cell 2 planned failure 1\ncell 2 planned failure 2\ncell 2 planned failure 3"
	if s.Err != want || s.Attempts != 3 || len(s.Errs) != 3 {
		t.Errorf("quarantined cell: err=%q attempts=%d errs=%v\nwant err=%q", s.Err, s.Attempts, s.Errs, want)
	}
	if s3 := settled[3]; s3.Err != "" || s3.Attempts != 2 || len(s3.Errs) != 1 {
		t.Errorf("recovered cell: %+v, want success after 2 attempts with 1 recorded error", s3)
	}
	for _, i := range []int{0, 1, 4, 5} {
		if s := settled[i]; s.Err != "" || s.Attempts != 1 || len(s.Errs) != 0 {
			t.Errorf("clean cell %d carries retry state: %+v", i, s)
		}
	}
	cancel()
	wg.Wait()
}

// TestDispatchLeaseTimeout: a worker that leases a cell and then goes
// silent (no heartbeat, no result — but the connection stays open, so
// only the lease timeout can catch it) is reaped and its cell re-dealt.
func TestDispatchLeaseTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := mustListen(t)
	co := NewCoordinator(jobSpec(t, testJob{Mult: 7}), grid(4), Options{
		LeaseTimeout: 200 * time.Millisecond,
		MaxLeases:    2,
	})
	ran := runInBackground(ctx, co, ln)
	// Raw silent peer: handshake, lease one cell, then nothing.
	leased := make(chan int, 1)
	go func() {
		conn, err := Dial(ln.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		WriteFrame(conn, Frame{Type: FrameHello, Hello: &Hello{Worker: "silent", Proto: ProtoVersion}})
		if f, err := ReadFrame(br); err != nil || f.Type != FrameJob {
			return
		}
		WriteFrame(conn, Frame{Type: FrameWant})
		if f, err := ReadFrame(br); err == nil && f.Type == FrameLease {
			leased <- f.Lease.Cells[0]
		}
		<-ctx.Done() // hold the conn open, silently
	}()
	var stuck int
	select {
	case stuck = <-leased:
	case <-time.After(5 * time.Second):
		t.Fatal("silent worker never got a lease")
	}
	wg := startWorker(t, ctx, ln.Addr().String(), "healthy", testSession(testJob{Mult: 7}, nil, nil))
	out := <-ran
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkPayloads(t, out.settled, 4, 7)
	if s := out.settled[stuck]; s.Attempts != 2 || len(s.Errs) != 1 || s.Errs[0] != DisconnectErr {
		t.Errorf("timed-out cell %d: %+v, want one revocation then success", stuck, s)
	}
	cancel()
	wg.Wait()
}

// TestDispatchProtoVersionMismatch: a worker speaking the wrong
// protocol version is refused with a fail frame, and the run still
// completes through a healthy worker.
func TestDispatchProtoVersionMismatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := mustListen(t)
	co := NewCoordinator(jobSpec(t, testJob{Mult: 1}), grid(2), Options{})

	ran := runInBackground(ctx, co, ln)

	// The mismatched peer is answered before the healthy worker joins:
	// until then no cell can settle, so the refusal cannot race the end
	// of the run (which closes every accepted connection).
	refused := make(chan string, 1)
	go func() {
		conn, err := Dial(ln.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		WriteFrame(conn, Frame{Type: FrameHello, Hello: &Hello{Worker: "fromthefuture", Proto: ProtoVersion + 1}})
		if f, err := ReadFrame(br); err == nil && f.Type == FrameFail {
			refused <- f.Fail.Reason
		} else {
			refused <- fmt.Sprintf("unexpected: %+v, %v", f, err)
		}
	}()
	select {
	case reason := <-refused:
		if reason == "" || reason[0] == 'u' {
			t.Errorf("refusal = %q, want a version-mismatch fail frame", reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mismatched worker never refused")
	}

	wg := startWorker(t, ctx, ln.Addr().String(), "current", testSession(testJob{Mult: 1}, nil, nil))
	out := <-ran
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkPayloads(t, out.settled, 2, 1)
	cancel()
	wg.Wait()
}

// TestDispatchCancellation: cancelling the coordinator returns the
// cells settled so far alongside the context error.
func TestDispatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := mustListen(t)
	co := NewCoordinator(jobSpec(t, testJob{Mult: 1}), grid(100), Options{})
	cancel()
	settled, err := co.Run(ctx, ln)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if len(settled) != 0 {
		t.Fatalf("no workers ever attached but %d cells settled", len(settled))
	}
}

// TestDispatchNoCells: an empty grid completes immediately.
func TestDispatchNoCells(t *testing.T) {
	ln := mustListen(t)
	settled, err := NewCoordinator(jobSpec(t, testJob{Mult: 1}), nil, Options{}).Run(context.Background(), ln)
	if err != nil || len(settled) != 0 {
		t.Fatalf("empty grid: %v, %v", settled, err)
	}
}

// TestDispatchSubprocessKill: two real worker processes (this test
// binary re-executed via the TestMain intercept), one SIGKILLed
// mid-run. The grid still completes, the killed worker's leased cells
// are revoked and re-dealt, and every payload is correct.
func TestDispatchSubprocessKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := mustListen(t)
	const cells = 24
	co := NewCoordinator(jobSpec(t, testJob{Mult: 9, SleepMs: 30}), grid(cells), Options{
		LeaseTimeout: 2 * time.Second,
		MaxLeases:    3,
	})
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spawn := func() *exec.Cmd {
		cmd := exec.CommandContext(ctx, self)
		cmd.Env = append(os.Environ(), "DISPATCH_TEST_WORKER="+ln.Addr().String())
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	victim := spawn()
	survivor := spawn()
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(200 * time.Millisecond) // let the victim lease mid-grid
		victim.Process.Kill()
		victim.Wait()
	}()
	settled, err := co.Run(ctx, ln)
	if err != nil {
		t.Fatal(err)
	}
	checkPayloads(t, settled, cells, 9)
	<-killed
	revoked := 0
	for _, s := range settled {
		for _, e := range s.Errs {
			if e == DisconnectErr {
				revoked++
			}
		}
	}
	if revoked == 0 {
		t.Error("SIGKILL mid-run revoked no leases (kill landed after the grid finished; widen the grid)")
	}
	cancel()
	survivor.Wait()
}

// TestMain intercepts the DISPATCH_TEST_WORKER re-execution of this
// test binary: instead of running the test suite, the process becomes a
// dispatch worker attached to the given coordinator — a real separate
// process the kill test can SIGKILL.
func TestMain(m *testing.M) {
	if addr := os.Getenv("DISPATCH_TEST_WORKER"); addr != "" {
		conn, err := Dial(addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dispatch test worker:", err)
			os.Exit(1)
		}
		w := &Worker{ID: fmt.Sprintf("sub%d", os.Getpid()), Heartbeat: 50 * time.Millisecond,
			Init: func(spec json.RawMessage) (Session, error) {
				var job testJob
				if err := json.Unmarshal(spec, &job); err != nil {
					return Session{}, err
				}
				return testSession(job, nil, nil), nil
			}}
		if err := w.Run(context.Background(), conn); err != nil {
			fmt.Fprintln(os.Stderr, "dispatch test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}
