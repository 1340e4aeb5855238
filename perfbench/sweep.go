package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

var (
	protocols  = []core.Protocol{core.Snooping, core.BASH, core.Directory}
	protoNames = []string{"snooping", "bash", "directory"}
	nodeCounts = []int{16, 64}
)

// fullOptions runs cells at the paper's full-scale operation counts (the
// simulator scales them further above 16 nodes), in-process, on one sweep
// worker per CPU, with no cell store.
var fullOptions = experiments.Options{Scale: experiments.Full}

// grid is one sweep workload's cell universe. A pass covers every sweep of
// the grid once with one simulation seed; a sweep is the unit a caller
// submits and waits for, one RunCells call.
type grid struct {
	name   string
	sweeps [][]experiments.Cell // cells of every sweep, seed left zero
	seeds  []uint64             // simulation seed pool; seeds[0] is the canonical pass
	// passS is a pass's wall time on the reference machine (2-core AMD
	// EPYC); a run makes --seconds/passS passes, so its sample counts, and
	// with them the tail percentiles, do not depend on host speed.
	passS float64
}

// macro16Grid is the Figure 10 grid at 16 nodes: the locking microbenchmark
// and the five Table 2 workloads, each one sweep of 3 protocols x 12
// bandwidths.
func macro16Grid() grid {
	panels := []string{"", "Apache", "Barnes-Hut", "OLTP", "Slashcode", "SPECjbb"}
	bws := []float64{100, 200, 400, 600, 900, 1300, 1900, 2800, 4200, 6300, 9500, 14000}
	g := grid{name: "macro16", seeds: []uint64{11, 23, 37, 41, 53, 67, 79, 97}, passS: 6.5}
	for _, wl := range panels {
		var sw []experiments.Cell
		for _, p := range protocols {
			for _, bw := range bws {
				sw = append(sw, experiments.Cell{Protocol: p, Nodes: 16, BandwidthMBs: bw, Workload: wl})
			}
		}
		g.sweeps = append(g.sweeps, sw)
	}
	return g
}

// scale64Grid is the Figure 1 / Figure 9 locking grid at 64 nodes: five
// bandwidths without think time and three think times at 1600 MB/s. Each
// grid point (its three protocols) is one sweep.
func scale64Grid() grid {
	type pt struct {
		bw    float64
		think sim.Time
	}
	pts := []pt{{100, 0}, {400, 0}, {1300, 0}, {4200, 0}, {14000, 0}, {1600, 200}, {1600, 500}, {1600, 1000}}
	g := grid{name: "scale64", seeds: []uint64{11, 23, 37, 41, 53, 67}, passS: 10.5}
	for _, x := range pts {
		var sw []experiments.Cell
		for _, p := range protocols {
			sw = append(sw, experiments.Cell{Protocol: p, Nodes: 64, BandwidthMBs: x.bw, Think: x.think})
		}
		g.sweeps = append(g.sweeps, sw)
	}
	return g
}

func gridFor(workload string) grid {
	if workload == "scale64" {
		return scale64Grid()
	}
	return macro16Grid()
}

// plan is the seeded order of one run: pass i uses simulation seed
// seedOf(i) and visits the grid's sweeps in order[i].
type plan struct {
	g   grid
	rng *sim.RNG
	// passSeeds holds the pool seeds after the canonical one, shuffled.
	passSeeds []uint64
	orders    [][]int
}

func newPlan(g grid, seed uint64) *plan {
	p := &plan{g: g, rng: sim.NewRNG(seed*0x9E3779B97F4A7C15 + 1)}
	p.passSeeds = append([]uint64(nil), g.seeds[1:]...)
	shuffle(p.rng, len(p.passSeeds), func(i, j int) { p.passSeeds[i], p.passSeeds[j] = p.passSeeds[j], p.passSeeds[i] })
	return p
}

// The first pass of every run uses the canonical seed, so the simulated
// metrics it yields (bash_vs_best, the traced layer counts) are the same
// for every workload seed; later passes draw the seed's own pool order.
func (p *plan) seedOf(pass int) uint64 {
	if pass == 0 {
		return p.g.seeds[0]
	}
	return p.passSeeds[(pass-1)%len(p.passSeeds)]
}

func (p *plan) order(pass int) []int {
	for len(p.orders) <= pass {
		o := make([]int, len(p.g.sweeps))
		for i := range o {
			o[i] = i
		}
		shuffle(p.rng, len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
		p.orders = append(p.orders, o)
	}
	return p.orders[pass]
}

// sweep returns the cells of the k-th sweep of pass.
func (p *plan) sweep(pass, k int) []experiments.Cell {
	src := p.g.sweeps[p.order(pass)[k]]
	out := make([]experiments.Cell, len(src))
	for i, c := range src {
		c.Seed = p.seedOf(pass)
		out[i] = c
	}
	return out
}

func shuffle(r *sim.RNG, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// cellLabel names a cell in the golden files.
func cellLabel(c experiments.Cell) string {
	return fmt.Sprintf("%s|n%d|bw%g|think%d|wl%s|seed%d",
		c.Protocol, c.Nodes, c.BandwidthMBs, c.Think, c.Workload, c.Seed)
}

// metricsDigest hashes a cell's Metrics exactly: floats by their bits.
func metricsDigest(m core.Metrics) string {
	s := fmt.Sprintf("%d|%d|%d|%x|%x|%x|%x|%d|%d|%x|%x", m.Protocol, m.Ops, m.Elapsed,
		math.Float64bits(m.Throughput), math.Float64bits(m.AvgMissLatency),
		math.Float64bits(m.Utilization), math.Float64bits(m.BroadcastFraction),
		m.Retries, m.Nacks, math.Float64bits(m.BytesPerOp), math.Float64bits(m.ControlBytesPerOp))
	return shortHash([]byte(s))
}

func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// goldens maps a cell or sweep label to its checked-in digest.
type goldens map[string]string

func goldenPath(root, name string) string {
	return filepath.Join(root, "perfbench", "golden", name+".tsv")
}

func loadGoldens(root, name string) (goldens, error) {
	f, err := os.Open(goldenPath(root, name))
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	defer f.Close()
	g := goldens{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("golden %s: malformed line %q", name, line)
		}
		g[k] = v
	}
	return g, sc.Err()
}

func writeGoldens(root, name, header string, g goldens) error {
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", header)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%s\n", k, g[k])
	}
	return os.WriteFile(goldenPath(root, name), []byte(b.String()), 0o644)
}

// checkCells compares each cell's metrics with its golden digest.
func (g goldens) checkCells(t *tally, cells []experiments.Cell, ms []core.Metrics) {
	for i, c := range cells {
		want, ok := g[cellLabel(c)]
		got := metricsDigest(ms[i])
		t.ok(ok && want == got, "cell %s: digest %s, golden %q", cellLabel(c), got, want)
	}
}

// bashVsBest is the geometric mean over grid points (cells that differ
// only in protocol) of BASH throughput over the better of Snooping and
// Directory.
func bashVsBest(cells []experiments.Cell, ms []core.Metrics) float64 {
	thr := map[experiments.Cell]*[3]float64{}
	for i, c := range cells {
		for pi, p := range protocols {
			if c.Protocol != p {
				continue
			}
			pt := c
			pt.Protocol = 0 // the grid point is the cell without its protocol
			if thr[pt] == nil {
				thr[pt] = new([3]float64)
			}
			thr[pt][pi] = ms[i].Throughput
		}
	}
	var ratios []float64
	for _, t := range thr {
		if best := math.Max(t[0], t[2]); best > 0 && t[1] > 0 {
			ratios = append(ratios, t[1]/best)
		}
	}
	return geomean(ratios)
}

// probeSetup is the set-up a sweep run performs before its first cell is
// dispatched: load the goldens, lay out the seeded plan, clear the memo and
// form the first sweep.
func probeSetup(cfg config) error {
	g := gridFor(cfg.workload)
	if _, err := loadGoldens(cfg.root, g.name); err != nil {
		return err
	}
	experiments.ResetMemo()
	if cells := newPlan(g, cfg.seed).sweep(0, 0); len(cells) == 0 {
		return fmt.Errorf("empty first sweep")
	}
	return nil
}

// runSweepWorkload is macro16 or scale64. Untraced, it runs the window's
// worth of whole passes, each in a fresh process as a figure regeneration
// would run (runPass). Simulator speed varies by several percent from one
// process to the next with memory layout, so spreading a run over several
// processes keeps run-to-run differences small. Traced, it runs the
// canonical pass once through RunCells and once through direct,
// span-recorded calls into core, then the layer probes.
func runSweepWorkload(cfg config, trace *recorder) (*result, error) {
	g := gridFor(cfg.workload)
	res := &result{Metrics: map[string]metric{}}
	var t tally
	if trace != nil {
		if err := tracedSweepRun(cfg, trace, newPlan(g, cfg.seed), &t, res.Metrics); err != nil {
			return nil, err
		}
		finish(res, t)
		return res, nil
	}

	setup, err := measureSetup(cfg, 15)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = metric{setup, "s"}
	var publish, resweep, rss []float64
	var cells int
	var seconds float64
	for pass := 0; pass < max(1, int(math.Round(cfg.seconds/g.passS))); pass++ {
		r, err := spawnPass(cfg, pass)
		if err != nil {
			return nil, err
		}
		fmt.Printf("pass %d (seed %d): %d cells in %.2f s\n", pass, r.Seed, r.Cells, r.Seconds)
		publish, resweep = append(publish, r.Publish...), append(resweep, r.Resweep...)
		rss = append(rss, r.RSSMB)
		cells += r.Cells
		seconds += r.Seconds
		t.attempted += r.Attempted
		t.failed += r.Failed
		t.reasons = append(t.reasons, r.Reasons...)
		if pass == 0 {
			res.Metrics["bash_vs_best"] = metric{r.BashVsBest, "ratio"}
		}
	}
	res.Metrics["cells_per_s"] = metric{float64(cells) / seconds, "1/s"}
	latencyMetrics(res.Metrics, "publish_sweep_ms", publish)
	latencyMetrics(res.Metrics, "resweep_ms", resweep)
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	finish(res, t)
	return res, nil
}

// passReport is what a pass process reports to the run.
type passReport struct {
	Seed       uint64    `json:"seed"`
	Cells      int       `json:"cells"`
	Seconds    float64   `json:"seconds"`
	Publish    []float64 `json:"publish_ms"`
	Resweep    []float64 `json:"resweep_ms"`
	BashVsBest float64   `json:"bash_vs_best"`
	RSSMB      float64   `json:"rss_mb"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Reasons    []string  `json:"reasons,omitempty"`
}

// runPass runs one pass of the run's plan in this process: every sweep is
// published through RunCells, resubmitted to the memo, and checked against
// the goldens.
func runPass(cfg config, pass int) (passReport, error) {
	g := gridFor(cfg.workload)
	gold, err := loadGoldens(cfg.root, g.name)
	if err != nil {
		return passReport{}, err
	}
	pl := newPlan(g, cfg.seed)
	r := passReport{Seed: pl.seedOf(pass)}
	var t tally
	var all []experiments.Cell
	var allMs []core.Metrics
	start := time.Now()
	for k := range g.sweeps {
		sw := pl.sweep(pass, k)
		ms, pub, rs, err := publishAndResweep(sw, &t)
		if err != nil {
			return r, err
		}
		gold.checkCells(&t, sw, ms)
		r.Publish, r.Resweep = append(r.Publish, pub), append(r.Resweep, rs)
		all, allMs = append(all, sw...), append(allMs, ms...)
	}
	r.Seconds = time.Since(start).Seconds()
	r.Cells = len(all)
	r.BashVsBest = bashVsBest(all, allMs)
	r.RSSMB = selfPeakRSSMB()
	r.Attempted, r.Failed, r.Reasons = t.attempted, t.failed, t.reasons
	return r, nil
}

// spawnPass runs pass in a child process and reads its report.
func spawnPass(cfg config, pass int) (passReport, error) {
	var r passReport
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	cmd := exec.Command(exe, "--pass", fmt.Sprint(pass), "--workload", cfg.workload,
		"--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds))
	cmd.Dir = cfg.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("pass %d: %w", pass, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("pass %d report: %w", pass, err)
	}
	return r, nil
}

// resweeps is how many times a published sweep is requested again. A
// memo-served sweep takes tens of microseconds, most of it goroutine
// hand-offs whose cost comes in two modes, so the resweep latency is the
// median of many requests.
const resweeps = 51

// publishAndResweep submits one sweep fresh, then again resweeps times;
// the repeats are served by the in-process memo and must simulate nothing
// and return the same metrics. It returns the first call's metrics, its
// latency and the median resweep latency (ms).
func publishAndResweep(cells []experiments.Cell, t *tally) ([]core.Metrics, float64, float64, error) {
	sims := experiments.Simulations()
	t0 := time.Now()
	ms, err := experiments.RunCells(fullOptions, cells)
	pub := msSince(t0)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("publish sweep: %w", err)
	}
	simulated := experiments.Simulations() - sims
	t.ok(simulated == uint64(len(cells)), "publish sweep simulated %d of %d cells", simulated, len(cells))
	again := make([][]core.Metrics, resweeps)
	took := make([]float64, resweeps)
	for i := range again {
		t1 := time.Now()
		if again[i], err = experiments.RunCells(fullOptions, cells); err != nil {
			return nil, 0, 0, fmt.Errorf("resweep: %w", err)
		}
		took[i] = msSince(t1)
	}
	rs := median(took)
	same := experiments.Simulations()-sims == simulated
	for _, a := range again {
		for i := range ms {
			same = same && a[i] == ms[i]
		}
	}
	t.ok(same, "resweep of %d cells differed from its publish or simulated", len(cells))
	return ms, pub, rs, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func finish(res *result, t tally) {
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && t.attempted > 0
	for _, r := range t.reasons {
		fmt.Printf("FAILED: %s\n", r)
	}
	fmt.Printf("checked %d items, %d failed\n", t.attempted, t.failed)
}

// blessAll regenerates every golden file from RunCells (sweep grids) and
// from an in-process run of each fleet sweep, whose result.tsv the service
// returns byte for byte.
func blessAll(root string) error {
	for _, g := range []grid{macro16Grid(), scale64Grid()} {
		gold := goldens{}
		for _, seed := range g.seeds {
			var cells []experiments.Cell
			for _, sw := range g.sweeps {
				for _, c := range sw {
					c.Seed = seed
					cells = append(cells, c)
				}
			}
			experiments.ResetMemo()
			ms, err := experiments.RunCells(fullOptions, cells)
			if err != nil {
				return err
			}
			for i, c := range cells {
				gold[cellLabel(c)] = metricsDigest(ms[i])
			}
			fmt.Fprintf(os.Stderr, "blessed %s seed %d (%d cells)\n", g.name, seed, len(cells))
		}
		if err := writeGoldens(root, g.name, "cell label -> sha256 prefix of the cell's canonical core.Metrics", gold); err != nil {
			return err
		}
	}
	gold := goldens{}
	for _, s := range fleetSeedPool() {
		d, err := fleetLocalDigest(s)
		if err != nil {
			return err
		}
		gold[fleetLabel(s)] = d
	}
	return writeGoldens(root, "fleet", "sweep label -> sha256 prefix of its result.tsv", gold)
}
