// Command perfbench is the repository's benchmark. It drives the simulator
// and the sweep service through their public entry points, checks every
// result against checked-in digests, and prints one JSON result line.
//
//	perfbench --workload macro16|scale64|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics (host time, tracing
// off); with --trace 1 it reports the per-layer metrics from a traced run.
// run.sh builds it and the bashsim binary from source; see README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// what the benchmark prints; BENCHMARK.json mirrors them and the package
// test checks that it does.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"bash_vs_best", "ratio"},
	{"publish_sweep_ms_p50", "ms"},
	{"publish_sweep_ms_tail", "ms"},
	{"resweep_ms_p50", "ms"},
	{"resweep_ms_tail", "ms"},
}

// perLayer lists the traced run's metrics in the order they are printed.
func perLayer() []metricDef {
	var out []metricDef
	for _, n := range nodeCounts {
		for _, p := range protoNames {
			out = append(out,
				metricDef{fmt.Sprintf("sim.events_per_op.%s.%d", p, n), "count"},
				metricDef{fmt.Sprintf("sim.ns_per_event.%s.%d", p, n), "ns"},
				metricDef{fmt.Sprintf("sim.pending_mean.%s.%d", p, n), "count"},
				metricDef{fmt.Sprintf("coherence.ns_per_op.%s.%d", p, n), "ns"},
			)
		}
	}
	out = append(out, metricDef{"sim.schedule_step_ns", "ns"})
	for _, n := range nodeCounts {
		out = append(out,
			metricDef{fmt.Sprintf("network.events_per_bcast.%d", n), "count"},
			metricDef{fmt.Sprintf("network.bcast_ns.%d", n), "ns"},
			metricDef{fmt.Sprintf("adaptive.bcast_frac.%d", n), "ratio"},
			metricDef{fmt.Sprintf("adaptive.utilization.%d", n), "ratio"},
			metricDef{fmt.Sprintf("adaptive.retries_per_kop.%d", n), "count"},
			metricDef{fmt.Sprintf("core.setup_ms_per_cell.%d", n), "ms"},
			metricDef{fmt.Sprintf("core.measure_ms_per_cell.%d", n), "ms"},
			metricDef{fmt.Sprintf("core.alloc_kb_per_cell.%d", n), "KB"},
		)
	}
	return append(out,
		metricDef{"runner.busy_frac", "ratio"},
		metricDef{"experiments.sims_per_cell", "count"},
		metricDef{"cellstore.put_us", "us"},
		metricDef{"cellstore.get_us", "us"},
		metricDef{"cellstore.bytes_per_cell", "B"},
		metricDef{"dist.coord_bytes_per_cell.publish", "B"},
		metricDef{"dist.coord_bytes_per_cell.resweep", "B"},
		metricDef{"dist.leases_per_cell", "count"},
		metricDef{"dist.peer_puts_per_cell", "count"},
		metricDef{"dist.advert_bytes_per_cell", "B"},
		metricDef{"dist.fetch_direct_frac", "ratio"},
		metricDef{"dist.fetch_fallbacks", "count"},
		metricDef{"dist.resweep_sims", "count"},
		metricDef{"dist.submit_ms", "ms"},
		metricDef{"svc.queue_ms", "ms"},
		metricDef{"svc.first_cell_ms", "ms"},
		metricDef{"svc.run_ms", "ms"},
		metricDef{"svc.result_ms", "ms"},
		metricDef{"trace.overhead_cells_per_s", "1/s"},
	)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts attempted and failed items (cells, sweeps) and keeps the
// first few failure reasons for the log.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) ok(good bool, format string, args ...any) bool {
	t.attempted++
	if !good {
		t.failed++
		if len(t.reasons) < 10 {
			t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
		}
	}
	return good
}

// config is the parsed command line plus the run's paths.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository root (the checkout)
	work     string // per-run scratch directory under the build directory
	bashsim  string // path of the built bashsim binary (fleet)
}

func main() {
	var (
		workload   = flag.String("workload", "", "macro16 | scale64 | fleet")
		seed       = flag.Uint64("seed", 1, "workload seed")
		seconds    = flag.Float64("seconds", 20, "measurement window in seconds")
		traceFlag  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bashsim    = flag.String("bashsim", "", "bashsim binary for the fleet workload")
		buildDir   = flag.String("build-dir", ".bench_build", "directory for run scratch files and traces")
		setupProbe = flag.Bool("setup-probe", false, "internal: perform the workload's set-up, print ready, exit")
		passFlag   = flag.Int("pass", -1, "internal: run one pass of a sweep workload and print its report")
		bless      = flag.Bool("bless", false, "regenerate the checked-in golden digests and exit")
	)
	flag.Parse()
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if *bless {
		if err := blessAll(root); err != nil {
			fatal(err)
		}
		return
	}
	switch *workload {
	case "macro16", "scale64", "fleet":
	default:
		fatal(fmt.Errorf("unknown --workload %q (want macro16, scale64 or fleet)", *workload))
	}
	if *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		root: root, bashsim: *bashsim}
	if *setupProbe {
		if err := probeSetup(cfg); err != nil {
			fatal(err)
		}
		fmt.Println("ready")
		return
	}
	if *passFlag >= 0 && cfg.workload != "fleet" {
		r, err := runPass(cfg, *passFlag)
		if err != nil {
			fatal(err)
		}
		out, _ := json.Marshal(r)
		fmt.Println(string(out))
		return
	}
	bd := *buildDir
	if !filepath.IsAbs(bd) {
		bd = filepath.Join(root, bd)
	}
	// The run directory (fleet cell stores, process logs) is left in place:
	// unlinking thousands of store files once the kernel has written them
	// back costs minutes on some virtual disks, far more than the run.
	if err := os.MkdirAll(filepath.Join(bd, "runs"), 0o755); err != nil {
		fatal(err)
	}
	cfg.work, err = os.MkdirTemp(filepath.Join(bd, "runs"), cfg.workload+"-")
	if err != nil {
		fatal(err)
	}

	st := newStamp(cfg)
	line, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", line)

	var (
		res   *result
		trace *recorder
	)
	if cfg.trace {
		trace = newRecorder()
	}
	switch cfg.workload {
	case "fleet":
		res, err = runFleetWorkload(cfg, trace)
	default:
		res, err = runSweepWorkload(cfg, trace)
	}
	if err != nil {
		fatal(err)
	}
	if trace != nil {
		path := filepath.Join(bd, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := trace.write(path, st, res.Metrics); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", path)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// repoRoot is the directory above this package that holds the simulator's
// go.mod; the benchmark refuses to run without it.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "perfbench", "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
				return "", fmt.Errorf("no simulator sources beside perfbench in %s", dir)
			}
			return dir, nil
		}
		if filepath.Dir(dir) == dir {
			return "", errors.New("run from the repository root: perfbench/go.mod not found")
		}
	}
}

// stamp identifies the code and machine a result came from, so before and
// after pairs can be checked to come from one machine.
type stamp struct {
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Time       string  `json:"time"`
}

func newStamp(cfg config) stamp {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		Commit: commit, SourceHash: sourceHash(cfg.root),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceHash digests every Go source and module file of the checkout, which
// identifies the code when the checkout carries no git metadata.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfPeakRSSMB is this process's resident-set high-water mark.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// measureSetup runs the benchmark's own binary k times in set-up probe mode
// and returns the median time from process start to its "ready" line, the
// point where the workload would dispatch its first cell.
func measureSetup(cfg config, k int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < k; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", cfg.workload,
			"--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds))
		cmd.Dir = cfg.root
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		el := time.Since(start).Seconds()
		werr := cmd.Wait()
		if rerr != nil || werr != nil || strings.TrimSpace(line) != "ready" {
			return 0, fmt.Errorf("set-up probe failed: %v %v %q", rerr, werr, line)
		}
		ts = append(ts, el)
	}
	return median(ts), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean sums in sorted order, so the result does not depend on the order
// the values were measured in.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var t float64
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

// tail is the highest order statistic with at least ten samples above it
// (the maximum when there are ten or fewer samples), with its percentile.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// geomean of positive ratios, summed in sorted order so the result does
// not depend on the order they were measured in.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var l float64
	for _, x := range s {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(s)))
}

// latencyMetrics adds the p50 and tail of one phase's sweep latencies.
func latencyMetrics(m map[string]metric, prefix string, ms []float64) {
	v, pct := tail(ms)
	m[prefix+"_p50"] = metric{median(ms), "ms"}
	m[prefix+"_tail"] = metric{v, "ms"}
	fmt.Printf("%s: %d samples, p50 %.3f ms, tail p%.0f %.3f ms\n", prefix, len(ms), median(ms), pct, v)
}
