package dist

// White-box tests for the hardened protocol: batched leases with adaptive
// shrink near queue exhaustion, result-reply refills, worker death
// mid-batch (only unfinished jobs reassigned), shared-secret auth, and
// coordinator co-execution. All run in -short (the CI race job).

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist/wire"
	"repro/internal/runner"
)

// TestBatchedLeaseStreamsAndRefills: one worker drains a whole batch run
// through a single LEASE round-trip — the initial lease grants
// LeaseBatch jobs and every streamed result's reply refills the queue —
// with results folded correctly in job order.
func TestBatchedLeaseStreamsAndRefills(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second, LeaseBatch: 3})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	jobs := echoJobs(8)
	type runOut struct {
		outs [][]byte
		err  error
	}
	done := make(chan runOut, 1)
	go func() {
		outs, err := coord.Run(jobs, runner.Options{})
		done <- runOut{outs, err}
	}()
	waitActive(t, srv.URL)

	w := dialAs(t, srv.URL, "w")
	lease := leaseAs(t, w, leaseRequest{Worker: "w", Kinds: []string{echoKind}})
	if lease == nil || len(lease.Jobs) != 3 {
		t.Fatalf("initial lease granted %+v, want LeaseBatch=3 jobs", lease)
	}
	// Stream results one by one, asking for a refill with each; the queue
	// should stay fed without ever sending another LEASE.
	queue := lease.Jobs
	for len(queue) > 0 {
		job := queue[0]
		queue = queue[1:]
		resp := resultAs(t, w, resultRequest{
			Worker: "w", JobID: job.JobID,
			Result: append([]byte("ok:"), job.Spec...),
			Kinds:  []string{echoKind}, Refill: 1,
		})
		if len(resp.Jobs) > 1 {
			t.Fatalf("refill granted %d jobs, want at most the 1 asked for", len(resp.Jobs))
		}
		queue = append(queue, resp.Jobs...)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	for i, out := range res.outs {
		if want := "ok:" + string(jobs[i].Spec); string(out) != want {
			t.Errorf("job %d result %q, want %q", i, out, want)
		}
	}
	st := coord.Stats()
	if st.Leases != 1 {
		t.Errorf("Leases = %d, want 1 (refills keep the worker off the lease path)", st.Leases)
	}
	if st.Refills != 5 {
		t.Errorf("Refills = %d, want 5 (8 jobs - 3 in the initial batch)", st.Refills)
	}
	if st.Dispatched != 8 {
		t.Errorf("Dispatched = %d, want 8", st.Dispatched)
	}
}

// TestLeaseShrinksNearExhaustion: a batch larger than the remaining queue
// is cut to the pending jobs' fair share across live workers, so the tail
// of a sweep spreads over the fleet instead of piling onto one straggler;
// a worker's own Max caps the grant too.
func TestLeaseShrinksNearExhaustion(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second, LeaseBatch: 8})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(echoJobs(3), runner.Options{})
		done <- err
	}()
	waitActive(t, srv.URL)

	// Register a second live worker, then lease as the first: 3 pending
	// split over 2 live workers is ceil(3/2) = 2, not the full batch of 8.
	a, b := dialAs(t, srv.URL, "a"), dialAs(t, srv.URL, "b")
	heartbeatAs(t, b, heartbeatRequest{Worker: "b"})
	leaseA := leaseAs(t, a, leaseRequest{Worker: "a", Kinds: []string{echoKind}})
	if leaseA == nil || len(leaseA.Jobs) != 2 {
		t.Fatalf("near-exhaustion lease granted %+v, want ceil(3 pending / 2 workers) = 2 jobs", leaseA)
	}
	// The other worker asks with Max=1 and gets exactly one.
	leaseB := leaseAs(t, b, leaseRequest{Worker: "b", Kinds: []string{echoKind}, Max: 1})
	if leaseB == nil || len(leaseB.Jobs) != 1 {
		t.Fatalf("Max=1 lease granted %+v, want 1 job", leaseB)
	}

	for _, job := range leaseA.Jobs {
		resultAs(t, a, resultRequest{Worker: "a", JobID: job.JobID, Result: append([]byte("ok:"), job.Spec...)})
	}
	for _, job := range leaseB.Jobs {
		resultAs(t, b, resultRequest{Worker: "b", JobID: job.JobID, Result: append([]byte("ok:"), job.Spec...)})
	}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWorkerDeathMidBatchReassignsOnlyUnfinished: a worker that leased a
// batch of 4, streamed back 2 results, and died loses only the 2 unfinished
// jobs to reassignment — the streamed results stay completed and are never
// re-executed.
func TestWorkerDeathMidBatchReassignsOnlyUnfinished(t *testing.T) {
	const kind = "dist-test.count"
	var executed atomic.Uint64
	runner.RegisterExecutor(kind, func(spec []byte) ([]byte, error) {
		executed.Add(1)
		return append([]byte("exec:"), spec...), nil
	})
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 150 * time.Millisecond, LeaseBatch: 4})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	jobs := make([]runner.Job, 4)
	for i := range jobs {
		jobs[i] = runner.Job{Kind: kind, Key: fmt.Sprintf("c%d", i), Label: fmt.Sprintf("count job %d", i), Spec: []byte{byte('a' + i)}}
	}
	type runOut struct {
		outs [][]byte
		err  error
	}
	done := make(chan runOut, 1)
	go func() {
		outs, err := coord.Run(jobs, runner.Options{})
		done <- runOut{outs, err}
	}()
	waitActive(t, srv.URL)

	// The doomed worker takes the whole batch, streams back the first two
	// results without asking for refills, and is never heard from again.
	doomed := dialAs(t, srv.URL, "doomed")
	lease := leaseAs(t, doomed, leaseRequest{Worker: "doomed", Kinds: []string{kind}})
	if lease == nil || len(lease.Jobs) != 4 {
		t.Fatalf("doomed lease granted %+v, want the whole batch of 4", lease)
	}
	for _, job := range lease.Jobs[:2] {
		resultAs(t, doomed, resultRequest{
			Worker: "doomed", JobID: job.JobID, Result: append([]byte("doomed:"), job.Spec...),
		})
	}

	ctx, cancel := testContext(t)
	defer cancel()
	go RunWorker(ctx, WorkerOptions{Coordinator: srv.URL, Name: "healthy", Poll: 10 * time.Millisecond, Kinds: []string{kind}})

	res := <-done
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	for i, out := range res.outs {
		want := "doomed:" + string(jobs[i].Spec)
		if i >= 2 {
			want = "exec:" + string(jobs[i].Spec)
		}
		if string(out) != want {
			t.Errorf("job %d result %q, want %q", i, out, want)
		}
	}
	if got := coord.Stats().Reassigned; got != 2 {
		t.Errorf("Reassigned = %d, want 2 (only the unfinished half of the batch)", got)
	}
	if got := executed.Load(); got != 2 {
		t.Errorf("healthy worker executed %d jobs, want 2 (streamed results never re-run)", got)
	}
}

// TestAuthRejectsWrongSecret: with a coordinator secret set, a session
// opened with a missing or wrong secret is refused at HELLO and the status
// endpoint answers 401, both with untouched state, and a worker started
// with the wrong secret exits with a descriptive *AuthError instead of
// polling forever.
func TestAuthRejectsWrongSecret(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second, Secret: "s3cret"})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	for _, secret := range []string{"", "wrong", "s3cret-but-longer"} {
		tr, err := newTransport(WorkerOptions{Coordinator: srv.URL, Name: "w", Secret: secret})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Lease(context.Background(), leaseRequest{Worker: "w", Kinds: []string{echoKind}}); !errors.As(err, new(*AuthError)) {
			t.Errorf("lease with secret %q returned %v, want *AuthError", secret, err)
		}
		tr.Close()
	}
	if _, _, _, _, err := Status(nil, nil, srv.URL, "wrong"); !errors.As(err, new(*AuthError)) {
		t.Errorf("Status with wrong secret returned %v, want *AuthError", err)
	}
	if coord.Workers() != 0 || coord.Stats().Dispatched != 0 {
		t.Error("rejected requests mutated coordinator state")
	}

	// A wrong-secret worker fails fast with the descriptive error.
	err := RunWorker(context.Background(), WorkerOptions{
		Coordinator: srv.URL, Name: "intruder", Kinds: []string{echoKind},
		Secret: "wrong", Poll: 5 * time.Millisecond,
	})
	var ae *AuthError
	if !errors.As(err, &ae) {
		t.Fatalf("wrong-secret RunWorker returned %v (%T), want *AuthError", err, err)
	}
	if !strings.Contains(err.Error(), "rejected") || !strings.Contains(err.Error(), "-dist-secret") {
		t.Errorf("AuthError %q not descriptive", err)
	}
}

// TestAuthedFleetCompletes: a correctly authed worker fleet (batched)
// drains a run; the status endpoint answers with the secret attached.
func TestAuthedFleetCompletes(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second, LeaseBatch: 2, Secret: "s3cret"})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := testContext(t)
	defer cancel()
	go RunWorker(ctx, WorkerOptions{
		Coordinator: srv.URL, Name: "w", Poll: 5 * time.Millisecond,
		Kinds: []string{echoKind}, Secret: "s3cret",
	})
	jobs := echoJobs(5)
	outs, err := coord.Run(jobs, runner.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, out := range outs {
		if want := "ok:" + string(jobs[i].Spec); string(out) != want {
			t.Errorf("job %d result %q, want %q", i, out, want)
		}
	}
	if _, _, workers, _, err := Status(nil, nil, srv.URL, "s3cret"); err != nil || workers < 1 {
		t.Errorf("authed Status = %d workers, err %v; want >= 1 worker, nil error", workers, err)
	}
}

// TestCoExecuteAloneDrainsBatch: with co-execution enabled, a lone
// coordinator — no external workers anywhere — completes its own batch
// over a framed wire session on an in-process pipe, auth included.
func TestCoExecuteAloneDrainsBatch(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{
		LeaseTTL: time.Second, LeaseBatch: 2, Secret: "s3cret", CoExecute: 2,
	})
	jobs := echoJobs(6)
	outs, err := coord.Run(jobs, runner.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, out := range outs {
		if want := "ok:" + string(jobs[i].Spec); string(out) != want {
			t.Errorf("job %d result %q, want %q", i, out, want)
		}
	}
	st := coord.Stats()
	if st.Completed != 6 {
		t.Errorf("Completed = %d, want 6", st.Completed)
	}
	if st.Leases < 1 {
		t.Error("co-execution never leased (did the in-process worker run?)")
	}
	if st.FramesIn == 0 {
		t.Error("FramesIn = 0: the in-process worker bypassed the wire")
	}
	if coord.Workers() < 1 {
		t.Error("in-process worker not counted live")
	}
	var sawConn bool
	for _, wc := range coord.Snapshot().WireConns {
		if wc.Worker == "coordinator" && wc.FramesIn > 0 {
			sawConn = true
		}
	}
	if !sawConn {
		t.Errorf("status lists no wire connection for worker \"coordinator\": %+v", coord.Snapshot().WireConns)
	}
}

// TestInProcessSessionEndReclaimsLeases: jobs leased on an in-process
// session go back to the queue the moment that session ends — as when a
// released co-execution worker had already leased the next Run's jobs —
// instead of waiting out the lease TTL.
func TestInProcessSessionEndReclaimsLeases(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, LeaseBatch: 4})
	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(echoJobs(4), runner.Options{})
		done <- err
	}()
	inProcess := func() *binaryTransport {
		tr, err := newTransport(WorkerOptions{Coordinator: "http://in-process", Name: "coordinator", dialWire: coord.dialInProcess})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	stopped := inProcess()
	var lease *leaseResponse
	for deadline := time.Now().Add(5 * time.Second); lease == nil; {
		if time.Now().After(deadline) {
			t.Fatal("the Run's jobs were never granted")
		}
		lease = leaseAs(t, stopped, leaseRequest{Worker: "coordinator", Kinds: []string{echoKind}})
	}
	if len(lease.Jobs) != 4 {
		t.Fatalf("lease granted %d jobs, want 4", len(lease.Jobs))
	}
	stopped.Close() // the worker stops without finishing anything

	next := inProcess()
	defer next.Close()
	var again *leaseResponse
	for deadline := time.Now().Add(5 * time.Second); again == nil; {
		if time.Now().After(deadline) {
			t.Fatal("leases of the closed session were not reclaimed (waiting out the TTL)")
		}
		again = leaseAs(t, next, leaseRequest{Worker: "coordinator", Kinds: []string{echoKind}})
	}
	for _, job := range again.Jobs {
		resultAs(t, next, resultRequest{Worker: "coordinator", JobID: job.JobID, Result: append([]byte("ok:"), job.Spec...)})
	}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := coord.Stats().Reassigned; got != 4 {
		t.Errorf("Reassigned = %d, want 4", got)
	}
}

// TestInProcessPoisonJobSpendsExpiryBudget: a job whose outcome always
// ends the in-process session (a result over the frame bound, refused by
// the worker's writer; a panic text over the string bound, refused by the
// coordinator) is reclaimed with each session, and every reclaim counts
// against its expiry budget, so Run fails with the lease-expiry error
// instead of re-executing the job forever.
func TestInProcessPoisonJobSpendsExpiryBudget(t *testing.T) {
	cases := []struct {
		name string
		big  bool // allocates over 64 MiB per attempt
		exec func([]byte) ([]byte, error)
	}{
		{"result over MaxPayload", true, func([]byte) ([]byte, error) {
			return make([]byte, wire.MaxPayload+1), nil
		}},
		{"panic text over maxWireStr", false, func([]byte) ([]byte, error) {
			panic(strings.Repeat("x", maxWireStr+1))
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.big && testing.Short() {
				t.Skip("allocates over 64 MiB per attempt")
			}
			kind := fmt.Sprintf("dist-test.poison-%d", i)
			var runs atomic.Int64
			runner.RegisterExecutor(kind, func(spec []byte) ([]byte, error) {
				runs.Add(1)
				return tc.exec(spec)
			})
			coord := NewCoordinator(CoordinatorOptions{
				LeaseTTL: time.Minute, CoExecute: 1, MaxLeaseExpiries: 1,
			})
			done := make(chan error, 1)
			go func() {
				_, err := coord.Run([]runner.Job{{Kind: kind, Key: "poison", Label: "poison"}}, runner.Options{})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "lease expired 2 times") {
					t.Fatalf("Run returned %v, want the lease-expiry error", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("Run never returned; the job ran %d times", runs.Load())
			}
			if got := runs.Load(); got != 2 {
				t.Errorf("job ran %d times, want 2 (MaxLeaseExpiries 1)", got)
			}
		})
	}
}

// TestCoExecutionRacesExternalWorkers: co-execution slots and external
// workers compete for the same queue — including the last job — and the
// fold is still correct and complete. Runs under -race in CI.
func TestCoExecutionRacesExternalWorkers(t *testing.T) {
	const kind = "dist-test.tiny"
	runner.RegisterExecutor(kind, func(spec []byte) ([]byte, error) {
		time.Sleep(time.Millisecond) // enough to interleave slots
		return append([]byte("ok:"), spec...), nil
	})
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second, LeaseBatch: 4, CoExecute: 2})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := testContext(t)
	defer cancel()
	for i := 0; i < 2; i++ {
		go RunWorker(ctx, WorkerOptions{
			Coordinator: srv.URL, Name: fmt.Sprintf("ext-%d", i),
			Poll: 2 * time.Millisecond, Kinds: []string{kind},
		})
	}
	jobs := make([]runner.Job, 30)
	for i := range jobs {
		jobs[i] = runner.Job{Kind: kind, Key: fmt.Sprintf("t%d", i), Label: fmt.Sprintf("tiny %d", i), Spec: []byte{byte(i)}}
	}
	outs, err := coord.Run(jobs, runner.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, out := range outs {
		if want := "ok:" + string(jobs[i].Spec); string(out) != want {
			t.Errorf("job %d result %q, want %q", i, out, want)
		}
	}
	if st := coord.Stats(); st.Completed != 30 {
		t.Errorf("Completed = %d, want 30", st.Completed)
	}
}

// TestProgressStreamsToWorkers: lease, heartbeat, and result replies carry
// sweep-wide done/total, and a worker's log shows the fleet progress.
func TestProgressStreamsToWorkers(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 300 * time.Millisecond})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(echoJobs(2), runner.Options{})
		done <- err
	}()
	waitActive(t, srv.URL)

	// Complete job 1 by hand, then observe its completion on every reply
	// kind the protocol has.
	manual := dialAs(t, srv.URL, "manual")
	lease := leaseAs(t, manual, leaseRequest{Worker: "manual", Kinds: []string{echoKind}, Max: 1})
	if lease == nil {
		t.Fatal("lease granted nothing")
	}
	if lease.Total != 2 || lease.Done != 0 {
		t.Errorf("lease reply progress %d/%d, want 0/2", lease.Done, lease.Total)
	}
	rres := resultAs(t, manual, resultRequest{
		Worker: "manual", JobID: lease.Jobs[0].JobID,
		Result: append([]byte("ok:"), lease.Jobs[0].Spec...),
	})
	if rres.Done != 1 || rres.Total != 2 {
		t.Errorf("result reply progress %d/%d, want 1/2", rres.Done, rres.Total)
	}
	hb := heartbeatAs(t, manual, heartbeatRequest{Worker: "manual"})
	if !hb.Active || hb.Done != 1 || hb.Total != 2 {
		t.Errorf("heartbeat reply = active %t %d/%d, want active 1/2", hb.Active, hb.Done, hb.Total)
	}

	// A real worker finishes the rest and logs fleet progress.
	var logMu sync.Mutex
	var logs []string
	ctx, cancel := testContext(t)
	defer cancel()
	go RunWorker(ctx, WorkerOptions{
		Coordinator: srv.URL, Name: "w", Poll: 5 * time.Millisecond, Kinds: []string{echoKind},
		Log: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Run returns the moment the last result lands server-side; give the
	// worker a beat to process the reply that carries the 2/2.
	deadline := time.Now().Add(5 * time.Second)
	for {
		logMu.Lock()
		for _, line := range logs {
			if strings.Contains(line, "2/2 cells done fleet-wide") {
				logMu.Unlock()
				return
			}
		}
		if time.Now().After(deadline) {
			t.Errorf("worker log shows no fleet progress line; got %q", logs)
			logMu.Unlock()
			return
		}
		logMu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
}
