package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/svc"
)

// fleetSeedPool is the universe of fleet sweeps: quick-scale fig1 with one
// simulation seed each. Distinct seeds share no cells, so every sweep of a
// run is new to the fleet's stores.
func fleetSeedPool() []uint64 {
	var s []uint64
	for i := uint64(0); i < 512; i++ {
		s = append(s, 1001+i)
	}
	return s
}

func fleetLabel(seed uint64) string { return fmt.Sprintf("fig1|quick|seed%d", seed) }

// fleetLocalDigest renders the sweep in-process exactly as the service
// does for result.tsv and hashes it.
func fleetLocalDigest(seed uint64) (string, error) {
	arts, err := experiments.Run("fig1", experiments.Options{Scale: experiments.Quick, Seeds: []uint64{seed}})
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	for _, a := range arts {
		fmt.Fprintln(&b, a.TSV())
	}
	return shortHash(b.Bytes()), nil
}

// canonicalSweeps is how many pool entries every run publishes first, in
// a seeded order; bash_vs_best is taken over them, so it is the same for
// every workload seed. Eleven also gives a tail ten samples beyond it.
const canonicalSweeps = 11

// fleetSweeps is the run's list of n sweeps: the canonical entries, then
// the rest of the pool, each part in a seeded order.
func fleetSweeps(seed uint64, n int) []uint64 {
	pool := fleetSeedPool()
	r := sim.NewRNG(seed*0x9E3779B97F4A7C15 + 7)
	head, rest := pool[:canonicalSweeps], pool[canonicalSweeps:]
	shuffle(r, len(head), func(i, j int) { head[i], head[j] = head[j], head[i] })
	shuffle(r, len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return pool[:min(n, len(pool))]
}

// proc is one bashsim process of the fleet.
type proc struct {
	name    string
	cmd     *exec.Cmd
	log     string
	hwm     float64 // VmHWM in MB, read just before stopping
	stopped bool
}

// workerPoll is the workers' idle re-poll interval. With the default
// 500 ms, a closed-loop client that submits the next sweep as soon as the
// last one is done races the workers' idle sleeps, and sweep latencies
// split into two modes (about 20 ms and about 500 ms) in a ratio that
// changes from run to run; a short poll keeps the lottery a few ms wide.
const workerPoll = "5ms"

// fleet is a sweep service and two single-slot workers on loopback.
type fleet struct {
	cfg     config
	base    string // service URL
	addr    string
	service *proc
	workers []*proc
	client  *http.Client
	svcHWM  float64 // max VmHWM over service incarnations
}

func startProc(cfg config, name string, args ...string) (*proc, error) {
	log := filepath.Join(cfg.work, name+".log")
	f, err := os.OpenFile(log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cmd := exec.Command(cfg.bashsim, args...)
	cmd.Dir = cfg.work
	cmd.Stdout, cmd.Stderr = f, f
	// The fleet dies with the benchmark if it is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return &proc{name: name, cmd: cmd, log: log}, nil
}

// stop reads the process's memory high-water mark, then sends SIGTERM and
// waits for it to exit (SIGKILL after 20 s).
func (p *proc) stop() {
	if p == nil || p.stopped {
		return
	}
	p.stopped = true
	p.hwm = vmHWM(p.cmd.Process.Pid)
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

func vmHWM(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startFleet starts the service and two workers, each with its own cell
// store and peer listener, and returns once both workers are on the
// placement ring.
func startFleet(cfg config, tag string) (*fleet, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	f := &fleet{cfg: cfg, addr: addr, base: "http://" + addr,
		client: &http.Client{Timeout: 10 * time.Second}}
	if err := f.startService(tag); err != nil {
		f.stop()
		return nil, err
	}
	if err := f.await(func(dist.StatusSnapshot) bool { return true }); err != nil {
		f.stop()
		return nil, err
	}
	for i := 1; i <= 2; i++ {
		store := filepath.Join(cfg.work, fmt.Sprintf("%s-store%d", tag, i))
		w, err := startProc(cfg, fmt.Sprintf("%s-worker%d", tag, i), "-worker", f.base, "-parallel", "1",
			"-cache-dir", store, "-peer-addr", "127.0.0.1:0", "-poll", workerPoll)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	if err := f.await(bothOnRing); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) startService(tag string) error {
	p, err := startProc(f.cfg, tag+"-service", "-serve", f.addr, "-co-execute", "0", "-no-cache")
	if err != nil {
		return err
	}
	f.service = p
	return nil
}

func bothOnRing(st dist.StatusSnapshot) bool { return st.RingWorkers == 2 }

// await polls /dist/status until the service answers with a status that
// satisfies cond.
func (f *fleet) await(cond func(dist.StatusSnapshot) bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if st, err := f.status(); err == nil && cond(st) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("fleet: service or workers not ready within 60 s (logs in %s)", f.cfg.work)
}

func (f *fleet) status() (dist.StatusSnapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return dist.FetchStatus(ctx, f.client, f.base, "")
}

// restartService replaces the service with a fresh process on the same
// address; the workers and their stores stay warm.
func (f *fleet) restartService(tag string) error {
	f.service.stop()
	f.svcHWM = max(f.svcHWM, f.service.hwm)
	if err := f.startService(tag); err != nil {
		return err
	}
	return f.await(bothOnRing)
}

func (f *fleet) stop() {
	if f.service != nil {
		f.service.stop()
		f.svcHWM = max(f.svcHWM, f.service.hwm)
	}
	for _, w := range f.workers {
		w.stop()
	}
}

var simulatedRe = regexp.MustCompile(`simulated (\d+) cells`)

// workerSims totals the simulations the stopped workers report.
func (f *fleet) workerSims() (int, error) {
	total := 0
	for _, w := range f.workers {
		b, err := os.ReadFile(w.log)
		if err != nil {
			return 0, err
		}
		m := simulatedRe.FindAllSubmatch(b, -1)
		if len(m) == 0 {
			return 0, fmt.Errorf("%s reported no simulation count", w.name)
		}
		n, _ := strconv.Atoi(string(m[len(m)-1][1]))
		total += n
	}
	return total, nil
}

// sweepObs is one sweep as the closed-loop client saw it.
type sweepObs struct {
	ok                                         bool
	cells                                      int
	latencyMs, submitMs, firstCellMs, resultMs float64
	queueMs, runMs                             float64
	ratios                                     []float64
}

// runSweep submits one sweep over the binary wire, polls its status until
// it is done, downloads result.tsv and checks its digest.
func (f *fleet) runSweep(rec *recorder, phase string, seed uint64, gold goldens, t *tally) sweepObs {
	var o sweepObs
	label := fleetLabel(seed)
	ss := rec.begin("sweep."+phase, 0, label)
	defer rec.end(ss)
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sp := rec.begin("dist.SubmitSweep", ss, label)
	resp, err := dist.SubmitSweep(ctx, dist.WorkerOptions{Coordinator: f.base},
		dist.SubmitRequest{Exp: "fig1", Scale: "quick", Seeds: []uint64{seed}})
	rec.end(sp)
	o.submitMs = msSince(t0)
	if !t.ok(err == nil, "%s %s: submit: %v", phase, label, err) {
		return o
	}
	sp = rec.begin("svc.poll", ss, label)
	var st svc.SweepStatus
	for {
		st, err = f.sweepStatus(ctx, resp.ID)
		if err != nil || st.State == svc.Done || st.State == svc.Failed || st.State == svc.Canceled {
			break
		}
		if o.firstCellMs == 0 && st.Done > 0 {
			o.firstCellMs = msSince(t0)
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec.end(sp)
	if !t.ok(err == nil && st.State == svc.Done, "%s %s: state %q err %v %s", phase, label, st.State, err, st.Err) {
		return o
	}
	if o.firstCellMs == 0 {
		o.firstCellMs = msSince(t0)
	}
	t1 := time.Now()
	sp = rec.begin("svc.result", ss, label)
	body, err := f.get(ctx, "/sweeps/"+resp.ID+"/result.tsv")
	rec.end(sp)
	o.resultMs = msSince(t1)
	o.latencyMs = msSince(t0)
	if !t.ok(err == nil, "%s %s: result: %v", phase, label, err) {
		return o
	}
	want, ok := gold[label]
	got := shortHash(body)
	o.ok = t.ok(ok && got == want, "%s %s: result.tsv digest %s, golden %q", phase, label, got, want)
	o.cells = st.Total
	o.queueMs = float64(st.Started.Sub(st.Submitted).Nanoseconds()) / 1e6
	o.runMs = float64(st.Finished.Sub(st.Started).Nanoseconds()) / 1e6
	o.ratios = fig1Ratios(body)
	return o
}

func (f *fleet) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

func (f *fleet) sweepStatus(ctx context.Context, id string) (svc.SweepStatus, error) {
	var st svc.SweepStatus
	b, err := f.get(ctx, "/sweeps/"+id)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}

// fig1Ratios reads BASH over max(Snooping, Directory) per bandwidth row of
// a fig1 TSV (columns: x, Snooping, err, BASH, err, Directory, err).
func fig1Ratios(tsv []byte) []float64 {
	var out []float64
	for _, line := range strings.Split(string(tsv), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 7 {
			continue
		}
		var v [3]float64
		bad := false
		for k, col := range []int{1, 3, 5} {
			x, err := strconv.ParseFloat(f[col], 64)
			bad = bad || err != nil
			v[k] = x
		}
		if _, err := strconv.ParseFloat(f[0], 64); err != nil || bad {
			continue
		}
		if best := max(v[0], v[2]); best > 0 && v[1] > 0 {
			out = append(out, v[1]/best)
		}
	}
	return out
}

// phaseResult is one phase's sweeps and the service counters after it.
type phaseResult struct {
	obs     []sweepObs
	seconds float64
	status  dist.StatusSnapshot
}

func (p phaseResult) cells() int {
	n := 0
	for _, o := range p.obs {
		n += o.cells
	}
	return n
}

func (p phaseResult) collect(get func(sweepObs) float64) []float64 {
	var out []float64
	for _, o := range p.obs {
		if o.ok {
			out = append(out, get(o))
		}
	}
	return out
}

// phase runs the sweeps one at a time, each submitted when the last one's
// result is in (a closed loop with one client).
func (f *fleet) phase(rec *recorder, name string, seeds []uint64, gold goldens, t *tally) (phaseResult, error) {
	var p phaseResult
	ps := rec.begin("fleet."+name, 0, "")
	start := time.Now()
	for _, s := range seeds {
		p.obs = append(p.obs, f.runSweep(rec, name, s, gold, t))
	}
	p.seconds = time.Since(start).Seconds()
	rec.end(ps)
	var err error
	p.status, err = f.status()
	return p, err
}

// fleetRun is one publish/resweep cycle.
type fleetRun struct {
	publish, resweep phaseResult
	sims             int
	rssMB            float64
}

// measureFleetSetup starts and stops k fleets and returns the median time
// from spawning the service to both workers being on the ring.
func measureFleetSetup(cfg config, k int) (float64, error) {
	var ts []float64
	for i := 0; i < k; i++ {
		t0 := time.Now()
		f, err := startFleet(cfg, fmt.Sprintf("setup%d", i))
		if err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
		f.stop()
	}
	fmt.Printf("fleet set-up samples (s): %.4f\n", ts)
	return median(ts), nil
}

// runFleet starts a fleet, publishes the sweeps, restarts the service and
// resweeps them. tag names the cycle's logs and stores.
func runFleet(cfg config, rec *recorder, tag string, seeds []uint64, t *tally) (fleetRun, error) {
	var fr fleetRun
	gold, err := loadGoldens(cfg.root, "fleet")
	if err != nil {
		return fr, err
	}
	sp := rec.begin("fleet.setup", 0, "")
	f, err := startFleet(cfg, tag)
	rec.end(sp)
	if err != nil {
		return fr, err
	}
	defer f.stop()
	if fr.publish, err = f.phase(rec, "publish", seeds, gold, t); err != nil {
		return fr, err
	}
	sp = rec.begin("fleet.restart", 0, "")
	err = f.restartService(tag + "-resweep")
	rec.end(sp)
	if err != nil {
		return fr, err
	}
	if fr.resweep, err = f.phase(rec, "resweep", seeds, gold, t); err != nil {
		return fr, err
	}
	f.stop()
	if fr.sims, err = f.workerSims(); err != nil {
		return fr, err
	}
	fr.rssMB = f.svcHWM
	for _, w := range f.workers {
		fr.rssMB += w.hwm
	}
	return fr, nil
}

// distMetrics fills the dist and svc layer metrics from one fleet cycle.
func distMetrics(fr fleetRun, m map[string]metric) {
	pub, rs := fr.publish, fr.resweep
	pc, rc := float64(pub.cells()), float64(rs.cells())
	both := pc + rc
	bytesOf := func(s dist.StatusSnapshot) float64 { return float64(s.BytesIn + s.BytesOut) }
	m["dist.coord_bytes_per_cell.publish"] = metric{bytesOf(pub.status) / pc, "B"}
	m["dist.coord_bytes_per_cell.resweep"] = metric{bytesOf(rs.status) / rc, "B"}
	m["dist.leases_per_cell"] = metric{float64(pub.status.Leases+rs.status.Leases) / both, "count"}
	m["dist.peer_puts_per_cell"] = metric{float64(pub.status.PeerPuts) / pc, "count"}
	m["dist.advert_bytes_per_cell"] = metric{float64(pub.status.AdvertBytes+rs.status.AdvertBytes) / both, "B"}
	m["dist.fetch_direct_frac"] = metric{float64(rs.status.FetchDirect) / rc, "ratio"}
	m["dist.fetch_fallbacks"] = metric{float64(pub.status.FetchFallback + rs.status.FetchFallback), "count"}
	m["dist.resweep_sims"] = metric{float64(fr.sims) - pc, "count"}
	all := func(get func(sweepObs) float64) []float64 {
		return append(pub.collect(get), rs.collect(get)...)
	}
	m["dist.submit_ms"] = metric{median(all(func(o sweepObs) float64 { return o.submitMs })), "ms"}
	m["svc.queue_ms"] = metric{median(all(func(o sweepObs) float64 { return o.queueMs })), "ms"}
	m["svc.first_cell_ms"] = metric{median(all(func(o sweepObs) float64 { return o.firstCellMs })), "ms"}
	m["svc.run_ms"] = metric{median(all(func(o sweepObs) float64 { return o.runMs })), "ms"}
	m["svc.result_ms"] = metric{median(all(func(o sweepObs) float64 { return o.resultMs })), "ms"}
	fmt.Printf("fleet: publish %d cells in %.2f s, resweep %d cells in %.2f s, worker simulations %d\n",
		int(pc), pub.seconds, int(rc), rs.seconds, fr.sims)
}

// publishSweepS is a publish sweep's latency on the reference machine
// (2-core AMD EPYC); the run publishes enough sweeps to fill 85% of the
// window there, and the resweep of the same list takes about a tenth of
// that. A fixed count keeps the tail percentiles independent of host speed.
const publishSweepS = 0.1

// fleetCycles is how many fresh fleets an untraced run spreads its sweeps
// over. A fleet places cells on a consistent-hash ring of workers named by
// host and pid, so how evenly its two workers share the resweep differs
// from fleet to fleet; five fleets per run average that out.
const fleetCycles = 5

// runFleetWorkload is the fleet workload. The traced run is one cycle over
// the whole list plus the in-process layer probes (16- and 64-node cells,
// microbenchmarks, cell store).
func runFleetWorkload(cfg config, rec *recorder) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	m := res.Metrics
	var t tally
	n := max(fleetCycles*canonicalSweeps, int(math.Round(0.85*cfg.seconds/publishSweepS)))
	seeds := fleetSweeps(cfg.seed, n)
	if rec != nil {
		fr, err := runFleet(cfg, rec, "traced", seeds, &t)
		if err != nil {
			return nil, err
		}
		distMetrics(fr, m)
		if err := tracedLayers(cfg, rec, nil, &t, m); err != nil {
			return nil, err
		}
		finish(res, t)
		return res, nil
	}

	// Set-up is timed before any sweep runs, so the cell stores' disk
	// writes do not slow the process starts it measures.
	setup, err := measureFleetSetup(cfg, 11)
	if err != nil {
		return nil, err
	}
	var rss, publish, resweep, ratios []float64
	var cells int
	var seconds float64
	for c := 0; c < fleetCycles; c++ {
		part := seeds[c*len(seeds)/fleetCycles : (c+1)*len(seeds)/fleetCycles]
		fr, err := runFleet(cfg, nil, fmt.Sprintf("cycle%d", c), part, &t)
		if err != nil {
			return nil, err
		}
		rss = append(rss, fr.rssMB)
		cells += fr.publish.cells() + fr.resweep.cells()
		seconds += fr.publish.seconds + fr.resweep.seconds
		publish = append(publish, fr.publish.collect(func(o sweepObs) float64 { return o.latencyMs })...)
		resweep = append(resweep, fr.resweep.collect(func(o sweepObs) float64 { return o.latencyMs })...)
		if c == 0 {
			for _, o := range fr.publish.obs[:canonicalSweeps] {
				ratios = append(ratios, o.ratios...)
			}
		}
		fmt.Printf("fleet cycle %d: %d sweeps, publish %.2f s, resweep %.2f s, %.1f MB\n",
			c, len(part), fr.publish.seconds, fr.resweep.seconds, fr.rssMB)
	}
	m["setup_s"] = metric{setup, "s"}
	m["cells_per_s"] = metric{float64(cells) / seconds, "1/s"}
	m["peak_rss_mb"] = metric{median(rss), "MB"}
	m["bash_vs_best"] = metric{geomean(ratios), "ratio"}
	latencyMetrics(m, "publish_sweep_ms", publish)
	latencyMetrics(m, "resweep_ms", resweep)
	finish(res, t)
	return res, nil
}

// fleetProbe is the fleet cycle a sweep workload's traced run adds (three
// sweeps), so its dist and svc metrics are reported too.
func fleetProbe(cfg config, rec *recorder, t *tally, m map[string]metric) error {
	fr, err := runFleet(cfg, rec, "probe", fleetSweeps(cfg.seed, 3), t)
	if err != nil {
		return err
	}
	distMetrics(fr, m)
	return nil
}
