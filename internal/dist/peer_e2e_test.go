package dist_test

// End-to-end worker-to-worker data path tests: with a holder serving its
// store on a peer listener, a cold worker must warm up entirely over direct
// peer fetches — the coordinator never relays a byte — and when the holder
// dies with its indicator still fresh, every fetch must degrade direct →
// relay → local simulation. Both paths are asserted with the sweep TSV
// byte-identical to the serial run: the direct path is an optimization,
// never a correctness dependency.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
)

// TestDistDirectFetchBypassesCoordinator: coordinator (no store) + warm
// holder-only worker serving a peer listener + cold worker. Every grant to
// the cold worker carries the holder's peer address, so each cell arrives
// over a direct worker-to-worker connection: zero coordinator fetches, zero
// relays, zero simulations, TSV byte-identical to the serial run.
func TestDistDirectFetchBypassesCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale sweep twice")
	}
	warm, cold := t.TempDir(), t.TempDir()

	// Serial baseline publishes all cells into the warm store.
	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{CacheDir: warm})

	experiments.RegisterCellExecutor(experiments.Options{CacheDir: cold})
	coord := dist.NewCoordinator(dist.CoordinatorOptions{LeaseTTL: 2 * time.Second})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)

	// The warm worker holds, serves, and — new here — listens for peers.
	startWorker(t, dist.WorkerOptions{
		Coordinator: srv.URL, Name: "warm", Poll: 50 * time.Millisecond,
		CacheDir: warm, AdvertInterval: 20 * time.Millisecond,
		Kinds:    []string{"exchange.holder-only"},
		PeerAddr: "127.0.0.1:0",
	})
	waitForAdverts(t, coord, 1)

	startWorker(t, dist.WorkerOptions{
		Coordinator: srv.URL, Name: "cold", Poll: 10 * time.Millisecond,
		CacheDir: cold, AdvertInterval: 20 * time.Millisecond,
	})

	experiments.ResetMemo()
	sims, fetches := experiments.Simulations(), experiments.Fetched()
	got := tsvOf(t, "fig1", experiments.Options{Backend: coord})
	if got != want {
		t.Errorf("direct-fetch TSV differs from serial TSV:\n--- serial ---\n%s\n--- direct ---\n%s", want, got)
	}
	if d := experiments.Simulations() - sims; d != 0 {
		t.Errorf("cold worker simulated %d published cells, want 0", d)
	}
	if d := experiments.Fetched() - fetches; d != fig1Cells {
		t.Errorf("cold worker fetched %d cells, want %d", d, fig1Cells)
	}
	st := coord.Stats()
	if st.Completed != fig1Cells {
		t.Errorf("coordinator completed %d jobs, want %d", st.Completed, fig1Cells)
	}
	// The tentpole claim: the whole warm-up went worker-to-worker. The
	// coordinator saw no fetch traffic at all, only the result posts'
	// delta counters reporting what happened behind its back.
	if st.FetchDirect != fig1Cells {
		t.Errorf("FetchDirect = %d, want %d", st.FetchDirect, fig1Cells)
	}
	if st.Fetches != 0 || st.FetchRelayed != 0 || st.FetchFallback != 0 {
		t.Errorf("coordinator fetch counters = %d fetches / %d relayed / %d fallbacks, want 0 of each (every fetch should go direct)",
			st.Fetches, st.FetchRelayed, st.FetchFallback)
	}
	if st.RingWorkers != 2 {
		t.Errorf("RingWorkers = %d, want 2", st.RingWorkers)
	}
}

// TestDistHolderDeathFallsBackToSimulation: the holder advertises its store
// and its peer address, then dies before the sweep starts — deterministic
// stand-in for dying mid-sweep, since every subsequent fetch exercises the
// identical degradation chain. Its indicator and peer address are still
// fresh coordinator-side, so every grant hints held with a dead holder
// address: the direct dial fails, the relay finds no live holder
// connection, and the worker simulates locally. The sweep must complete
// with TSV byte-identical to the serial run — the fallback chain never
// produces a wrong result, only slower ones.
func TestDistHolderDeathFallsBackToSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale sweep twice")
	}
	warm, cold := t.TempDir(), t.TempDir()

	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{CacheDir: warm})

	experiments.RegisterCellExecutor(experiments.Options{CacheDir: cold})
	// Generous TTL: the liveness window (3x TTL) must outlast the whole
	// sweep so the dead holder's indicator and peer address keep being
	// handed out — the point is to hit the fallback chain on every cell.
	coord := dist.NewCoordinator(dist.CoordinatorOptions{LeaseTTL: 10 * time.Second})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)

	holderCtx, killHolder := context.WithCancel(context.Background())
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		dist.RunWorker(holderCtx, dist.WorkerOptions{
			Coordinator: srv.URL, Name: "warm", Poll: 50 * time.Millisecond,
			CacheDir: warm, AdvertInterval: 20 * time.Millisecond,
			Kinds:    []string{"exchange.holder-only"},
			PeerAddr: "127.0.0.1:0",
		})
	}()
	waitForAdverts(t, coord, 1)
	killHolder()
	<-holderDone // peer listener closed, wire connection torn down

	startWorker(t, dist.WorkerOptions{
		Coordinator: srv.URL, Name: "cold", Poll: 10 * time.Millisecond,
		CacheDir: cold, AdvertInterval: 20 * time.Millisecond,
	})

	experiments.ResetMemo()
	sims, fetches := experiments.Simulations(), experiments.Fetched()
	got := tsvOf(t, "fig1", experiments.Options{Backend: coord})
	if got != want {
		t.Errorf("holder-death TSV differs from serial TSV:\n--- serial ---\n%s\n--- fallback ---\n%s", want, got)
	}
	if d := experiments.Fetched() - fetches; d != 0 {
		t.Errorf("worker installed %d fetched cells, want 0 (the only holder is dead)", d)
	}
	if d := experiments.Simulations() - sims; d != fig1Cells {
		t.Errorf("worker simulated %d cells, want %d (every fetch must fall back)", d, fig1Cells)
	}
	st := coord.Stats()
	if st.FetchDirect != 0 || st.FetchFallback != 0 {
		t.Errorf("FetchDirect = %d / FetchFallback = %d, want 0 of each (no fetch can succeed)",
			st.FetchDirect, st.FetchFallback)
	}
	// Every direct failure fell through to the relay, which found no live
	// holder connection: all of them count as coordinator false positives.
	if st.Fetches != fig1Cells || st.FetchFalsePos != fig1Cells {
		t.Errorf("fetch counters = %d fetches / %d false positives, want %d of each",
			st.Fetches, st.FetchFalsePos, fig1Cells)
	}
	if st.FetchServed != 0 || st.FetchRelayed != 0 {
		t.Errorf("served %d / relayed %d from a dead holder, want 0", st.FetchServed, st.FetchRelayed)
	}
}
