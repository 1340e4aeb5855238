package dist

// White-box tests for the wire transport: auth, counters, the reconnect
// backoff, and reconnection across a coordinator restart. These drive real
// TCP listeners through Coordinator.Serve so the socket-level byte counters
// are live (httptest bypasses Serve, so tests that only need the protocol
// keep using it elsewhere).

import (
	"context"
	"errors"
	"fmt"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runner"
)

// serveWire binds a real listener and serves the coordinator on it.
func serveWire(t *testing.T, coord *Coordinator) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go coord.Serve(l)
	return "http://" + l.Addr().String()
}

// TestWireFleetCountersAndStatus: a sweep over two workers
// completes with correct results, and the coordinator's socket and frame
// counters — plus the per-connection detail in the status snapshot — all
// report the traffic.
func TestWireFleetCountersAndStatus(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second, LeaseBatch: 4})
	url := serveWire(t, coord)
	ctx, cancel := testContext(t)
	defer cancel()
	for i := 0; i < 2; i++ {
		go RunWorker(ctx, WorkerOptions{
			Coordinator: url, Name: fmt.Sprintf("bin-%d", i),
			Poll: 5 * time.Millisecond, Kinds: []string{echoKind},
		})
	}

	jobs := echoJobs(12)
	outs, err := coord.Run(jobs, runner.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, out := range outs {
		if want := "ok:" + string(jobs[i].Spec); string(out) != want {
			t.Errorf("job %d = %q, want %q", i, out, want)
		}
	}

	st := coord.Stats()
	if st.FramesIn == 0 || st.FramesOut == 0 {
		t.Errorf("frame counters = %d in / %d out, want both > 0", st.FramesIn, st.FramesOut)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Errorf("socket byte counters = %d in / %d out, want both > 0", st.BytesIn, st.BytesOut)
	}
	snap := coord.statusSnapshot()
	if len(snap.WireConns) == 0 {
		t.Fatal("status snapshot lists no live wire connections")
	}
	for _, wc := range snap.WireConns {
		if wc.Worker == "" || wc.Remote == "" || wc.FramesIn == 0 || wc.FramesOut == 0 {
			t.Errorf("wire conn status incomplete: %+v", wc)
		}
	}
}

// TestWireAuthRejectedOnHello: a worker with the wrong secret exits with
// *AuthError — the terminal ERROR frame on HELLO is fatal, not a reason to
// redial.
func TestWireAuthRejectedOnHello(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{Secret: "right"})
	url := serveWire(t, coord)
	ctx, cancel := testContext(t)
	defer cancel()
	err := RunWorker(ctx, WorkerOptions{
		Coordinator: url, Name: "intruder", Poll: 5 * time.Millisecond,
		Kinds: []string{echoKind}, Secret: "wrong",
	})
	var ae *AuthError
	if !errors.As(err, &ae) {
		t.Fatalf("wrong-secret RunWorker returned %v (%T), want *AuthError", err, err)
	}
}

// killableListener records accepted connections so a test can sever every
// live wire at once, simulating a coordinator restart.
type killableListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *killableListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

func (l *killableListener) kill() {
	l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// TestWireReconnectAfterCoordinatorRestart: mid-sweep, every connection and
// the listener die; the coordinator rebinds the same port and the
// workers reconnect (capped backoff) and finish the sweep.
// Leases lost in the cut reassign via the normal TTL machinery.
func TestWireReconnectAfterCoordinatorRestart(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 500 * time.Millisecond, LeaseBatch: 2})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	kl := &killableListener{Listener: inner}
	go coord.Serve(kl)
	addr := inner.Addr().String()

	ctx, cancel := testContext(t)
	defer cancel()
	for i := 0; i < 2; i++ {
		go RunWorker(ctx, WorkerOptions{
			Coordinator: "http://" + addr, Name: fmt.Sprintf("phoenix-%d", i),
			Poll: 5 * time.Millisecond, Kinds: []string{echoKind},
		})
	}

	var once sync.Once
	jobs := echoJobs(12)
	outs, err := coord.Run(jobs, runner.Options{
		Progress: func(done, total int) {
			if done < 4 {
				return
			}
			once.Do(func() {
				kl.kill()
				// Rebind the same address: the workers' redial loop must find
				// the reborn coordinator without help.
				var l2 net.Listener
				for i := 0; i < 50; i++ {
					if l2, err = net.Listen("tcp", addr); err == nil {
						break
					}
					time.Sleep(20 * time.Millisecond)
				}
				if l2 == nil {
					t.Errorf("rebind %s: %v", addr, err)
					cancel()
					return
				}
				t.Cleanup(func() { l2.Close() })
				go coord.Serve(l2)
			})
		},
	})
	if err != nil {
		t.Fatalf("Run across restart: %v", err)
	}
	for i, out := range outs {
		if want := "ok:" + string(jobs[i].Spec); string(out) != want {
			t.Errorf("job %d = %q, want %q", i, out, want)
		}
	}
}

// TestReconnectDelayBackoff: the redial delay grows exponentially from the
// base, caps at the max, and always jitters inside [d/2, d).
func TestReconnectDelayBackoff(t *testing.T) {
	for fails := 1; fails <= 12; fails++ {
		want := wireBackoffBase << (fails - 1)
		if want > wireBackoffMax || want <= 0 {
			want = wireBackoffMax
		}
		for i := 0; i < 32; i++ {
			d := reconnectDelay(fails)
			if d < want/2 || d >= want {
				t.Fatalf("reconnectDelay(%d) = %v, want in [%v, %v)", fails, d, want/2, want)
			}
		}
	}
}

// TestDropSessionLogsArmedDelay: the reconnect delay a dropped session
// logs is the delay it armed, drop after drop as the backoff grows.
func TestDropSessionLogsArmedDelay(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	tr, err := newTransport(WorkerOptions{
		Coordinator: "http://127.0.0.1:1", Name: "w",
		Log: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	logged := regexp.MustCompile(`reconnecting in (\S+)$`)
	for drop := 1; drop <= 8; drop++ {
		a, b := net.Pipe()
		sess := &wireSession{conn: a, waiters: map[uint32]chan wireReply{}}
		tr.mu.Lock()
		tr.sess = sess
		tr.mu.Unlock()
		tr.dropSession(sess, errors.New("link down"))
		b.Close()

		tr.mu.Lock()
		armed := time.Until(tr.nextDial)
		tr.mu.Unlock()
		mu.Lock()
		line := lines[len(lines)-1]
		mu.Unlock()
		m := logged.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("drop %d logged %q, want a reconnect delay", drop, line)
		}
		got, err := time.ParseDuration(m[1])
		if err != nil {
			t.Fatalf("drop %d: parse %q: %v", drop, m[1], err)
		}
		if d := got - armed; d < -3*time.Millisecond || d > 3*time.Millisecond {
			t.Errorf("drop %d logged a %v delay but armed %v", drop, got, armed)
		}
	}
}

// TestTransportNeedsHTTPURL: a coordinator URL the dialer cannot use fails
// at once with a description, instead of retrying forever.
func TestTransportNeedsHTTPURL(t *testing.T) {
	for _, u := range []string{"https://host:8497", "host:8497", "http://"} {
		err := RunWorker(context.Background(), WorkerOptions{Coordinator: u, Kinds: []string{echoKind}})
		if err == nil || !strings.Contains(err.Error(), "needs an http://host:port coordinator URL") {
			t.Errorf("RunWorker(%q) = %v, want the http://host:port error", u, err)
		}
	}
}
