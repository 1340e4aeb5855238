package experiments

// BenchmarkCellFetchVsSimulate quantifies the tentpole claim of the peer
// cell exchange: downloading a published cell over the wire (the cold
// worker's path: a hinted grant, FETCH -> CELL, fail-closed decode, raw
// install, result) must be at least an order of magnitude cheaper than
// re-simulating it. The CI bench script parses the two sub-benchmark
// timings and fails the build if fetch*10 > simulate.

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/cellstore"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/runner"
)

// fetchBenchKind is a job kind whose executor only fetches: it fails
// rather than simulate, so every op the fetch leg times went over the wire.
const fetchBenchKind = "experiments-bench.fetch"

func BenchmarkCellFetchVsSimulate(b *testing.B) {
	o := Options{}
	warm, measure := o.ops()
	rc := runConfig{
		protocol: core.BASH, nodes: 16, bandwidth: 1600,
		seed: 42, warm: warm, measure: measure,
	}
	key := rc.cacheKey()

	// Publish the cell once, then stand up a coordinator whose own store
	// holds it — every grant of the key carries a "held" hint, and the
	// worker's FETCH is served from that store.
	warmDir, coldDir := b.TempDir(), b.TempDir()
	metrics := runOne(o, rc)
	if err := cellstore.For(warmDir).Put(key, metrics); err != nil {
		b.Fatalf("publish cell: %v", err)
	}
	coord := dist.NewCoordinator(dist.CoordinatorOptions{CacheDir: warmDir})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	b.Cleanup(func() { l.Close() })
	go coord.Serve(l)
	cold := Options{CacheDir: coldDir}
	runner.RegisterExecutor(fetchBenchKind, func([]byte) ([]byte, error) {
		if _, ok := fetchCell(cold, rc); !ok {
			return nil, fmt.Errorf("fetch of %s missed", key)
		}
		return nil, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	go dist.RunWorker(ctx, dist.WorkerOptions{
		Coordinator: "http://" + l.Addr().String(), Name: "cold",
		Poll: time.Millisecond, Kinds: []string{fetchBenchKind},
	})
	fetchJobs := func(n int) []runner.Job {
		jobs := make([]runner.Job, n)
		for i := range jobs {
			jobs[i] = runner.Job{Kind: fetchBenchKind, Key: key, Label: fmt.Sprintf("fetch %d", i)}
		}
		return jobs
	}
	// Warm the session before timing anything.
	if _, err := coord.Run(fetchJobs(1), runner.Options{}); err != nil {
		b.Fatalf("warm fetch: %v", err)
	}

	b.Run("fetch", func(b *testing.B) {
		jobs := fetchJobs(b.N)
		b.ResetTimer()
		if _, err := coord.Run(jobs, runner.Options{}); err != nil {
			b.Fatalf("fetch run: %v", err)
		}
	})

	b.Run("simulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOne(o, rc)
		}
	})
}
