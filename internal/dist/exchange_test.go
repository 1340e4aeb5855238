package dist

// Tests for the peer cell exchange: the Bloom indicator itself, the
// coordinator's advert table and budget adaptation, fetch routing from the
// coordinator's store, relay routing through an advertised holder's wire
// connection, and the false-positive fallback. Where a store is needed the
// tests use real cellstore directories — the exchange's fail-closed
// verification is exactly the envelope check these produce.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cellstore"
)

// --- indicator ----------------------------------------------------------

func TestFilterMembership(t *testing.T) {
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("cell-key-%04d", i)
	}
	f := buildFilter(keys, defaultBitsPerKey)
	for _, k := range keys {
		if !f.contains(k) {
			t.Fatalf("filter lost its own key %q (Bloom filters must not false-negative)", k)
		}
	}
	// False positives exist but must be rare at the default density.
	fp := 0
	for i := 0; i < 2000; i++ {
		if f.contains(fmt.Sprintf("absent-key-%04d", i)) {
			fp++
		}
	}
	if fp > 100 { // 5%; the target at 12 bits/key is ~0.5%
		t.Errorf("false-positive rate %d/2000 is far above the design point", fp)
	}
	var nilFilter *cellFilter
	if nilFilter.contains("anything") {
		t.Error("nil filter claimed membership")
	}
	if buildFilter(nil, defaultBitsPerKey).contains("anything") {
		t.Error("empty filter claimed membership")
	}
}

func TestFilterDelta(t *testing.T) {
	keys := []string{"a", "b", "c"}
	old := buildFilter(keys, defaultBitsPerKey)
	grown := old.clone()
	grown.add("d")
	grown.add("e")
	if !grown.sameShape(old) {
		t.Fatal("clone+add changed filter shape")
	}
	applied := old.clone()
	applied.applyDelta(grown.xor(old))
	if !applied.equal(grown) {
		t.Fatal("applying the XOR delta did not reconstruct the grown filter")
	}
}

func TestBudgetAdaptation(t *testing.T) {
	// A tight budget halves bits-per-key until a full send fits (or the
	// floor is hit); an unlimited budget keeps full density.
	if bpk := budgetBitsPerKey(100_000, 0); bpk != defaultBitsPerKey {
		t.Errorf("unlimited budget: bpk = %d, want %d", bpk, defaultBitsPerKey)
	}
	full := budgetBitsPerKey(100_000, 1<<30)
	if full != defaultBitsPerKey {
		t.Errorf("huge budget: bpk = %d, want %d", full, defaultBitsPerKey)
	}
	tight := budgetBitsPerKey(100_000, 32<<10)
	if tight >= full {
		t.Errorf("tight budget did not shrink the filter: bpk = %d", tight)
	}
	if tight < minBitsPerKey {
		t.Errorf("budget adaptation went below the floor: bpk = %d", tight)
	}
	// Pacing: sending sentBytes against budget B defers at least
	// sentBytes/B seconds.
	if ms := advertDelayMillis(8192, 4096); ms != 2000 {
		t.Errorf("advertDelayMillis(8192, 4096) = %d, want 2000", ms)
	}
	if ms := advertDelayMillis(100, 0); ms != 0 {
		t.Errorf("unlimited budget delayed %dms", ms)
	}
}

// --- advert table -------------------------------------------------------

func TestNoteAdvertFullDeltaAndGaps(t *testing.T) {
	x := newExchange("")
	f := buildFilter([]string{"k1", "k2"}, defaultBitsPerKey)

	// A delta with no prior full must be refused.
	if x.noteAdvert(advertRequest{Worker: "w", Gen: 1, M: f.m, K: f.k, Bits: f.bits}, 10) {
		t.Fatal("delta without a prior full filter was accepted")
	}
	if !x.noteAdvert(advertRequest{Worker: "w", Gen: 1, Full: true, M: f.m, K: f.k, Bits: f.bits}, 10) {
		t.Fatal("full advert refused")
	}
	window, now := time.Minute, time.Now()
	if !x.likelyHeld("other", "k1", window, now) {
		t.Fatal("advertised key not reported held")
	}
	if x.likelyHeld("w", "k1", window, now) {
		t.Fatal("a worker's own indicator satisfied its hint (it would fetch from itself)")
	}

	// A gen-successor, same-shape delta applies.
	grown := f.clone()
	grown.add("k3")
	if !x.noteAdvert(advertRequest{Worker: "w", Gen: 2, M: f.m, K: f.k, Bits: grown.xor(f)}, 10) {
		t.Fatal("successor delta refused")
	}
	if !x.likelyHeld("other", "k3", window, now) {
		t.Fatal("delta-advertised key not reported held")
	}

	// A generation gap (lost advert) must wait for a full resend.
	if x.noteAdvert(advertRequest{Worker: "w", Gen: 4, M: f.m, K: f.k, Bits: grown.bits}, 10) {
		t.Fatal("generation gap accepted as a delta")
	}

	// Stale indicators neither hint nor route.
	if x.likelyHeld("other", "k1", time.Nanosecond, now.Add(time.Hour)) {
		t.Fatal("stale indicator satisfied a hint")
	}
	if hs := x.holders("other", "k1", time.Nanosecond, now.Add(time.Hour)); len(hs) != 0 {
		t.Fatalf("stale indicator routed: holders = %v", hs)
	}

	if got := x.adverts.Load(); got != 4 {
		t.Errorf("adverts counter = %d, want 4", got)
	}
	if got := x.advertBytes.Load(); got != 40 {
		t.Errorf("advertBytes counter = %d, want 40", got)
	}
}

func TestHoldersFreshestFirst(t *testing.T) {
	x := newExchange("")
	f := buildFilter([]string{"k"}, defaultBitsPerKey)
	for i, w := range []string{"old", "mid", "new"} {
		x.noteAdvert(advertRequest{Worker: w, Gen: 1, Full: true, M: f.m, K: f.k, Bits: f.bits}, 1)
		x.mu.Lock()
		// Stamp explicit recency (noteAdvert uses wall-clock now).
		x.table[w].when = time.Now().Add(time.Duration(i) * time.Second)
		x.mu.Unlock()
	}
	hs := x.holders("requester", "k", time.Hour, time.Now())
	if len(hs) != 3 || hs[0] != "new" || hs[2] != "old" {
		t.Fatalf("holders = %v, want [new mid old]", hs)
	}
	if hs := x.holders("new", "k", time.Hour, time.Now()); len(hs) != 2 || hs[0] != "mid" {
		t.Fatalf("holders excluding requester = %v, want [mid old]", hs)
	}
}

// --- fetch routing ------------------------------------------------------

type cellPayload struct {
	Name string
	X    float64
}

// storeWith creates a cell store in a temp dir holding the given keys.
func storeWith(t *testing.T, keys ...string) (string, *cellstore.Store) {
	t.Helper()
	dir := t.TempDir()
	st, err := cellstore.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	for i, k := range keys {
		if err := st.Put(k, cellPayload{Name: k, X: float64(i)}); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	return dir, st
}

func TestFetchServedFromCoordinatorStore(t *testing.T) {
	dir, _ := storeWith(t, "held-key")
	coord := NewCoordinator(CoordinatorOptions{CacheDir: dir})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	cold := dialAs(t, srv.URL, "cold")
	resp, err := cold.Fetch(context.Background(), fetchRequest{Key: "held-key"})
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if !resp.Found {
		t.Fatal("coordinator store did not serve the fetch")
	}
	if err := cellstore.VerifyRaw("held-key", resp.Raw); err != nil {
		t.Fatalf("served bytes fail verification: %v", err)
	}
	var got cellPayload
	if err := cellstore.DecodeRaw(resp.Raw, "held-key", &got); err != nil || got.Name != "held-key" {
		t.Fatalf("decode served cell: %+v, %v", got, err)
	}

	// Hints on grants come from the same store.
	jobs := []leasedJob{{Key: "held-key"}, {Key: "nobody-has-this"}}
	coord.annotateHints("cold", jobs)
	if !jobs[0].Held || jobs[1].Held {
		t.Fatalf("hints = %v/%v, want true/false", jobs[0].Held, jobs[1].Held)
	}

	// A miss for an unheld key counts as a false positive.
	if resp, err := cold.Fetch(context.Background(), fetchRequest{Key: "nobody-has-this"}); err != nil || resp.Found {
		t.Fatalf("fetch of absent key: %+v, %v", resp, err)
	}
	st := coord.Stats()
	if st.Fetches != 2 || st.FetchServed != 1 || st.FetchFalsePos != 1 {
		t.Errorf("counters = %d fetches / %d served / %d missed, want 2/1/1", st.Fetches, st.FetchServed, st.FetchFalsePos)
	}
}

// TestFetchRelayedThroughHolder: the coordinator has no store; a worker
// with the cell in its store connects over the binary wire and advertises.
// A fetch from a third party must be relayed down the holder's connection,
// answered from its store, verified, and returned.
func TestFetchRelayedThroughHolder(t *testing.T) {
	dir, _ := storeWith(t, "relayed-key")
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second})
	url := serveWire(t, coord)
	ctx, cancel := testContext(t)
	defer cancel()

	// The holder only holds: its kind matches no job, so it polls idle,
	// advertises its store, and serves relays.
	go RunWorker(ctx, WorkerOptions{
		Coordinator: url, Name: "holder", Poll: 5 * time.Millisecond,
		Kinds:    []string{"holder.no-jobs"},
		CacheDir: dir, AdvertInterval: 10 * time.Millisecond,
	})

	deadline := time.Now().Add(5 * time.Second)
	for coord.Stats().Adverts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder never advertised")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := dialAs(t, url, "cold").Fetch(context.Background(), fetchRequest{Key: "relayed-key"})
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if !resp.Found {
		t.Fatal("fetch was not relayed to the advertised holder")
	}
	var got cellPayload
	if err := cellstore.DecodeRaw(resp.Raw, "relayed-key", &got); err != nil || got.Name != "relayed-key" {
		t.Fatalf("decode relayed cell: %+v, %v", got, err)
	}
	st := coord.Stats()
	if st.FetchRelayed != 1 {
		t.Errorf("FetchRelayed = %d, want 1", st.FetchRelayed)
	}
}

// TestFetchFalsePositiveFallsThrough: an indicator claiming everything (all
// bits set) routes a fetch to a holder whose store is empty; the relay
// comes back not-found and the requester is told to simulate.
func TestFetchFalsePositiveFallsThrough(t *testing.T) {
	emptyDir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second})
	url := serveWire(t, coord)
	ctx, cancel := testContext(t)
	defer cancel()
	go RunWorker(ctx, WorkerOptions{
		Coordinator: url, Name: "braggart", Poll: 5 * time.Millisecond,
		Kinds:    []string{"holder.no-jobs"},
		CacheDir: emptyDir, AdvertInterval: 10 * time.Millisecond,
	})
	awaitAdverts := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for coord.Stats().Adverts < n {
			if time.Now().After(deadline) {
				t.Fatalf("coordinator absorbed %d adverts, want >= %d", coord.Stats().Adverts, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	awaitAdverts(1)

	// Overwrite the worker's honest (empty) indicator with an all-claiming
	// one sent on a second session under its name — a phantom
	// advertisement. ADVERT has no reply, so wait until it is absorbed.
	f := buildFilter([]string{"x"}, defaultBitsPerKey)
	for i := range f.bits {
		f.bits[i] = 0xFF
	}
	if _, err := dialAs(t, url, "braggart").Advert(context.Background(), f); err != nil {
		t.Fatalf("advert: %v", err)
	}
	awaitAdverts(2)

	resp, err := dialAs(t, url, "cold").Fetch(context.Background(), fetchRequest{Key: "never-simulated"})
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if resp.Found {
		t.Fatal("empty-store holder produced a cell")
	}
	if st := coord.Stats(); st.FetchFalsePos != 1 {
		t.Errorf("FetchFalsePos = %d, want 1", st.FetchFalsePos)
	}
}

// TestAdvertEndpointRejectsMalformedGeometry: an ADVERT frame whose
// indicator geometry is inconsistent (bit array too short for its size, no
// hashes, an absurd hash count) ends the sender's session with an ERROR
// frame and is never absorbed into the advert table.
func TestAdvertEndpointRejectsMalformedGeometry(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	url := serveWire(t, coord)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	bad := []*cellFilter{
		{m: 128, k: 4, bits: make([]byte, 3)},  // geometry mismatch
		{m: 64, k: 0, bits: make([]byte, 8)},   // no hashes
		{m: 64, k: 200, bits: make([]byte, 8)}, // absurd hashes
	}
	for i, f := range bad {
		tr := dialAs(t, url, "w")
		sess, err := tr.ensure(ctx)
		if err != nil {
			t.Fatalf("malformed advert %d: connect: %v", i, err)
		}
		if _, err := tr.Advert(ctx, f); err != nil {
			t.Fatalf("malformed advert %d: send: %v", i, err)
		}
		for {
			sess.mu.Lock()
			dead, serr := sess.dead, sess.err
			sess.mu.Unlock()
			if dead {
				if serr == nil || !strings.Contains(serr.Error(), "coordinator error") {
					t.Errorf("malformed advert %d: session ended with %v, want a coordinator error", i, serr)
				}
				break
			}
			if ctx.Err() != nil {
				t.Fatalf("malformed advert %d: coordinator kept the session open", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if got := coord.Stats().Adverts; got != 0 {
		t.Errorf("malformed adverts were counted: %d", got)
	}
}
