package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cellstore"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions. Spans of one cell or sweep share Item.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Item   string `json:"item,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id; a nil recorder records nothing.
func (r *recorder) begin(name string, parent int, item string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Item: item, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// layerTime is one span name's call count, total time and self time: the
// span's duration minus the part of it that its child spans cover.
type layerTime struct {
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (r *recorder) selfTimes() map[string]*layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*layerTime{}
	for _, s := range r.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Calls++
		lt.TotalMs += float64(dur) / 1e6
		lt.SelfMs += float64(dur-covered(kids[s.ID], s.Start, s.End)) / 1e6
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write saves the run's stamp, metrics, per-layer self times and spans.
func (r *recorder) write(path string, st stamp, metrics map[string]metric) error {
	self := r.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("per-layer self time (ms): layer calls total self")
	for _, n := range names {
		fmt.Printf("  %-22s %6d %10.1f %10.1f\n", n, self[n].Calls, self[n].TotalMs, self[n].SelfMs)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Stamp    stamp                 `json:"stamp"`
		Metrics  map[string]metric     `json:"metrics"`
		SelfTime map[string]*layerTime `json:"self_time"`
		Spans    []span                `json:"spans"`
	}{st, metrics, self, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cellRun is one traced cell: its metrics and the layer counts taken
// around the public calls that produced them.
type cellRun struct {
	cell      experiments.Cell
	m         core.Metrics
	events    uint64 // kernel events fired inside Measure, sampler excluded
	ops       uint64 // operations completed (warm-up and window)
	pendSum   float64
	pendN     uint64
	setupNs   int64 // pool lease + PreheatOwned + AttachWorkload
	measureNs int64
}

// pendingSampler reads Kernel.Pending every sampleEvery simulated ns. Its
// events only read state, so the simulated results are unchanged (the
// traced run checks that against RunCells).
type pendingSampler struct {
	k       *sim.Kernel
	stopped bool
	sum     float64
	n       uint64
}

const sampleEvery sim.Time = 1000

func (p *pendingSampler) sample() {
	if p.stopped {
		return
	}
	p.sum += float64(p.k.Pending())
	p.n++
	p.k.Schedule(sampleEvery, p.sample)
}

// cellWorkload builds a cell's workload generator and warm-start blocks
// the way the figure sweeps do.
func cellWorkload(c experiments.Cell) (core.Workload, []coherence.Addr, error) {
	if c.Workload == "" {
		lk := workload.NewLocking(128*c.Nodes, c.Think)
		return lk, lk.WarmBlocks(), nil
	}
	w := workload.ByName(c.Workload)
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", c.Workload)
	}
	return w, w.WarmBlocks(), nil
}

// tracedCell simulates c through direct calls into core: lease a System
// from the pool, preheat the owned blocks, attach the workload, measure.
// The operation counts and watchdog are the full-scale sweep defaults.
func tracedCell(rec *recorder, parent int, pool *core.Pool, c experiments.Cell) (cellRun, error) {
	item := cellLabel(c)
	cs := rec.begin("cell", parent, item)
	defer rec.end(cs)
	warm, measure := uint64(4000), uint64(16000)
	if c.Nodes > 16 {
		warm *= uint64(c.Nodes / 16)
		measure *= uint64(c.Nodes / 16)
	}
	wl, blocks, err := cellWorkload(c)
	if err != nil {
		return cellRun{}, err
	}
	t0 := time.Now()
	sp := rec.begin("core.Pool.Get", cs, item)
	sys := pool.Get(core.Config{Protocol: c.Protocol, Nodes: c.Nodes, BandwidthMBs: c.BandwidthMBs,
		BroadcastCost: c.BroadcastCost, Seed: c.Seed, WatchdogInterval: 500_000_000})
	rec.end(sp)
	sp = rec.begin("core.PreheatOwned", cs, item)
	for i, a := range blocks {
		sys.PreheatOwned(a, network.NodeID(i%c.Nodes), uint64(i)+1)
	}
	rec.end(sp)
	sp = rec.begin("core.AttachWorkload", cs, item)
	sys.AttachWorkload(func(network.NodeID) core.Workload { return wl })
	rec.end(sp)
	r := cellRun{cell: c, setupNs: time.Since(t0).Nanoseconds()}

	smp := &pendingSampler{k: sys.Kernel}
	sys.Kernel.Schedule(sampleEvery, smp.sample)
	fired := sys.Kernel.Fired()
	t1 := time.Now()
	sp = rec.begin("core.Measure", cs, item)
	r.m = sys.Measure(warm, measure)
	rec.end(sp)
	r.measureNs = time.Since(t1).Nanoseconds()
	smp.stopped = true
	r.events = sys.Kernel.Fired() - fired - smp.n
	r.ops = sys.TotalOps()
	r.pendSum, r.pendN = smp.sum, smp.n
	sp = rec.begin("core.Pool.Put", cs, item)
	pool.Put(sys)
	rec.end(sp)
	return r, nil
}

// batchResult aggregates a batch's traced and untraced runs.
type batchResult struct {
	runs               []cellRun
	tracedS, untracedS float64
	busyNs, capacityNs float64
	allocBytes         uint64
	sims, cells        int
	untracedMs         []core.Metrics
	untracedCells      []experiments.Cell
}

// runBatch runs a batch of sweeps of one node count untraced (publish and
// memo resweep, as the end-to-end run does) and then traced, sweep by
// sweep, on one runner worker per CPU, and checks that both paths agree
// with each other and with the goldens.
func runBatch(rec *recorder, sweeps [][]experiments.Cell, gold goldens, t *tally) (batchResult, error) {
	var br batchResult
	experiments.ResetMemo()
	start := time.Now()
	for _, sw := range sweeps {
		sims := experiments.Simulations()
		ms, _, _, err := publishAndResweep(sw, t)
		if err != nil {
			return br, err
		}
		br.sims += int(experiments.Simulations() - sims)
		br.untracedCells = append(br.untracedCells, sw...)
		br.untracedMs = append(br.untracedMs, ms...)
	}
	br.untracedS = time.Since(start).Seconds()
	gold.checkCells(t, br.untracedCells, br.untracedMs)

	pool := core.NewPool()
	workers := runtime.NumCPU()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start = time.Now()
	for _, sw := range sweeps {
		ss := rec.begin("sweep", 0, fmt.Sprintf("%s|n%d|seed%d", sw[0].Workload, sw[0].Nodes, sw[0].Seed))
		s0 := time.Now()
		runs, err := runner.Map(len(sw), runner.Options{Workers: workers}, func(i int) (cellRun, error) {
			return tracedCell(rec, ss, pool, sw[i])
		})
		rec.end(ss)
		if err != nil {
			return br, err
		}
		for _, r := range runs {
			br.busyNs += float64(r.setupNs + r.measureNs)
		}
		br.capacityNs += float64(workers) * float64(time.Since(s0).Nanoseconds())
		br.runs = append(br.runs, runs...)
	}
	br.tracedS = time.Since(start).Seconds()
	runtime.ReadMemStats(&msAfter)
	br.allocBytes = msAfter.TotalAlloc - msBefore.TotalAlloc
	br.cells = len(br.runs)
	for i, r := range br.runs {
		t.ok(r.m == br.untracedMs[i], "traced core path differs from RunCells on %s", cellLabel(r.cell))
	}
	return br, nil
}

// layerMetrics fills the sim, coherence, adaptive, core, runner,
// experiments and trace metrics from the batches of one traced run.
func layerMetrics(m map[string]metric, batches []batchResult) {
	var busy, capacity, tracedS, untracedS float64
	var sims, cells int
	for _, br := range batches {
		busy += br.busyNs
		capacity += br.capacityNs
		tracedS += br.tracedS
		untracedS += br.untracedS
		sims += br.sims
		cells += br.cells
		if len(br.runs) == 0 {
			continue
		}
		n := br.runs[0].cell.Nodes
		for pi, p := range protocols {
			var ev, ops, ns, ps, pn float64
			for _, r := range br.runs {
				if r.cell.Protocol == p {
					ev += float64(r.events)
					ops += float64(r.ops)
					ns += float64(r.measureNs)
					ps += r.pendSum
					pn += float64(r.pendN)
				}
			}
			name := protoNames[pi]
			m[fmt.Sprintf("sim.events_per_op.%s.%d", name, n)] = metric{ev / ops, "count"}
			m[fmt.Sprintf("sim.ns_per_event.%s.%d", name, n)] = metric{ns / ev, "ns"}
			m[fmt.Sprintf("sim.pending_mean.%s.%d", name, n)] = metric{ps / pn, "count"}
			m[fmt.Sprintf("coherence.ns_per_op.%s.%d", name, n)] = metric{ns / ops, "ns"}
		}
		var bf, ut []float64
		var retries, bops, setup, measure float64
		for _, r := range br.runs {
			setup += float64(r.setupNs)
			measure += float64(r.measureNs)
			if r.cell.Protocol == core.BASH {
				bf = append(bf, r.m.BroadcastFraction)
				ut = append(ut, r.m.Utilization)
				retries += float64(r.m.Retries)
				bops += float64(r.ops)
			}
		}
		k := float64(len(br.runs))
		m[fmt.Sprintf("adaptive.bcast_frac.%d", n)] = metric{mean(bf), "ratio"}
		m[fmt.Sprintf("adaptive.utilization.%d", n)] = metric{mean(ut), "ratio"}
		m[fmt.Sprintf("adaptive.retries_per_kop.%d", n)] = metric{1000 * retries / bops, "count"}
		m[fmt.Sprintf("core.setup_ms_per_cell.%d", n)] = metric{setup / k / 1e6, "ms"}
		m[fmt.Sprintf("core.measure_ms_per_cell.%d", n)] = metric{measure / k / 1e6, "ms"}
		m[fmt.Sprintf("core.alloc_kb_per_cell.%d", n)] = metric{float64(br.allocBytes) / k / 1024, "KB"}
	}
	m["runner.busy_frac"] = metric{busy / capacity, "ratio"}
	m["experiments.sims_per_cell"] = metric{float64(sims) / float64(cells), "count"}
	traced, untraced := float64(cells)/tracedS, float64(cells)/untracedS
	m["trace.overhead_cells_per_s"] = metric{traced - untraced, "1/s"}
	fmt.Printf("traced %.2f cells/s, untraced %.2f cells/s over %d cells\n", traced, untraced, cells)
}

// probeSweep is the small fixed sweep a traced run adds for a node count
// its own workload does not cover, so every traced run reports every layer
// metric: the 16-node locking cells at three bandwidths, or one 64-node
// locking grid point, at the canonical seed.
func probeSweep(nodes int) []experiments.Cell {
	bws := []float64{400, 1300, 6300}
	if nodes == 64 {
		bws = []float64{1300}
	}
	var sw []experiments.Cell
	for _, p := range protocols {
		for _, bw := range bws {
			sw = append(sw, experiments.Cell{Protocol: p, Nodes: nodes, BandwidthMBs: bw, Seed: 11})
		}
	}
	return sw
}

// gridName is the workload whose goldens cover a node count's cells.
func gridName(nodes int) string {
	if nodes == 64 {
		return "scale64"
	}
	return "macro16"
}

// tracedSweepRun is the traced run of macro16 or scale64: the canonical
// pass of the workload's grid plus the probe for the other node count,
// then the layer microbenchmarks, the cell-store probe and a three-sweep
// fleet probe.
func tracedSweepRun(cfg config, rec *recorder, pl *plan, t *tally, m map[string]metric) error {
	var own [][]experiments.Cell
	for k := range pl.g.sweeps {
		own = append(own, pl.sweep(0, k))
	}
	if err := tracedLayers(cfg, rec, own, t, m); err != nil {
		return err
	}
	return fleetProbe(cfg, rec, t, m)
}

// tracedLayers runs one traced batch per node count — the workload's own
// sweeps where they have that node count, else the probe sweep — and the
// layer probes, and fills every in-process layer metric.
func tracedLayers(cfg config, rec *recorder, own [][]experiments.Cell, t *tally, m map[string]metric) error {
	var batches []batchResult
	for _, n := range nodeCounts {
		sweeps := [][]experiments.Cell{probeSweep(n)}
		if len(own) > 0 && own[0][0].Nodes == n {
			sweeps = own
		}
		gold, err := loadGoldens(cfg.root, gridName(n))
		if err != nil {
			return err
		}
		br, err := runBatch(rec, sweeps, gold, t)
		if err != nil {
			return err
		}
		batches = append(batches, br)
	}
	layerMetrics(m, batches)
	return layerProbes(cfg, rec, batches, m)
}

// layerProbes runs the kernel and interconnect microbenchmarks and times
// cell-store puts and gets of the traced cells' metrics.
func layerProbes(cfg config, rec *recorder, batches []batchResult, m map[string]metric) error {
	var ps, pn float64
	for _, br := range batches {
		for _, r := range br.runs {
			if r.cell.Nodes == 64 {
				ps += r.pendSum
				pn += float64(r.pendN)
			}
		}
	}
	depth := int(ps/pn + 0.5)
	sp := rec.begin("sim.Kernel.Step", 0, fmt.Sprintf("depth%d", depth))
	m["sim.schedule_step_ns"] = metric{scheduleStepNs(depth), "ns"}
	rec.end(sp)
	for _, n := range nodeCounts {
		sp := rec.begin("network.SendOrdered", 0, fmt.Sprintf("n%d", n))
		ev, ns := broadcastCost(n)
		rec.end(sp)
		m[fmt.Sprintf("network.events_per_bcast.%d", n)] = metric{ev, "count"}
		m[fmt.Sprintf("network.bcast_ns.%d", n)] = metric{ns, "ns"}
	}
	var cells []experiments.Cell
	var ms []core.Metrics
	for _, br := range batches {
		for _, r := range br.runs {
			cells = append(cells, r.cell)
			ms = append(ms, r.m)
		}
	}
	return storeProbe(cfg, rec, cells, ms, m)
}

// storeProbe writes each traced cell's metrics into a fresh cell store
// under its content key and reads them back.
func storeProbe(cfg config, rec *recorder, cells []experiments.Cell, ms []core.Metrics, m map[string]metric) error {
	dir, err := os.MkdirTemp(cfg.work, "store-")
	if err != nil {
		return err
	}
	st, err := cellstore.Open(dir)
	if err != nil {
		return err
	}
	var put, get []float64
	var bytes int
	for i, c := range cells {
		key := c.Key(fullOptions)
		sp := rec.begin("cellstore.Put", 0, cellLabel(c))
		t0 := time.Now()
		if err := st.Put(key, ms[i]); err != nil {
			return fmt.Errorf("cell store put: %w", err)
		}
		put = append(put, float64(time.Since(t0).Nanoseconds())/1e3)
		rec.end(sp)
	}
	for i, c := range cells {
		key := c.Key(fullOptions)
		var back core.Metrics
		sp := rec.begin("cellstore.Get", 0, cellLabel(c))
		t0 := time.Now()
		ok := st.Get(key, &back)
		get = append(get, float64(time.Since(t0).Nanoseconds())/1e3)
		rec.end(sp)
		if !ok || back != ms[i] {
			return fmt.Errorf("cell store returned a different value for %s", cellLabel(c))
		}
		raw, _ := st.GetRaw(key)
		bytes += len(raw)
	}
	m["cellstore.put_us"] = metric{median(put), "us"}
	m["cellstore.get_us"] = metric{median(get), "us"}
	m["cellstore.bytes_per_cell"] = metric{float64(bytes) / float64(len(cells)), "B"}
	return nil
}
