package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func root(t *testing.T) string {
	t.Helper()
	r, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestQuickSuiteDigest pins the output of `bashsim -exp all -scale quick
// -no-cache`: every experiment's artifacts, in registry order.
func TestQuickSuiteDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite")
	}
	experiments.ResetMemo()
	var b bytes.Buffer
	for _, id := range experiments.IDs() {
		arts, err := experiments.Run(id, experiments.Options{Scale: experiments.Quick})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arts {
			fmt.Fprintln(&b, a.TSV())
		}
	}
	sum := sha256.Sum256(b.Bytes())
	if got := hex.EncodeToString(sum[:]); !strings.HasPrefix(got, "42058619") {
		t.Fatalf("quick-suite digest %s, want 42058619…", got)
	}
}

// TestGoldensDefaultAndHeldOutSeed re-simulates, for the default workload
// seed and a held-out one, the first sweep of a pass that draws a
// seed-dependent simulation seed, and one fleet sweep, against the
// checked-in digests.
func TestGoldensDefaultAndHeldOutSeed(t *testing.T) {
	for _, seed := range []uint64{1, 977} {
		for _, name := range []string{"macro16", "scale64"} {
			g := gridFor(name)
			gold, err := loadGoldens(root(t), name)
			if err != nil {
				t.Fatal(err)
			}
			pl := newPlan(g, seed)
			cells := pl.sweep(1, 0)
			if name == "macro16" {
				cells = cells[:6]
			}
			experiments.ResetMemo()
			ms, err := experiments.RunCells(fullOptions, cells)
			if err != nil {
				t.Fatal(err)
			}
			var tl tally
			gold.checkCells(&tl, cells, ms)
			if tl.failed != 0 {
				t.Errorf("%s seed %d: %v", name, seed, tl.reasons)
			}
		}
		gold, err := loadGoldens(root(t), "fleet")
		if err != nil {
			t.Fatal(err)
		}
		s := fleetSweeps(seed, canonicalSweeps+1)[canonicalSweeps]
		if d, err := fleetLocalDigest(s); err != nil || d != gold[fleetLabel(s)] {
			t.Errorf("fleet sweep %s: digest %s (%v), golden %s", fleetLabel(s), d, err, gold[fleetLabel(s)])
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// the harness prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(root(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 30; i++ {
		xs = append(xs, float64(i))
	}
	if v, pct := tail(xs); v != 20 || pct < 66 || pct > 67 {
		t.Fatalf("tail of 1..30 = %v at p%v, want 20 at p66.7", v, pct)
	}
	if v, _ := tail(xs[:5]); v != 5 {
		t.Fatalf("tail of 5 samples = %v, want the maximum", v)
	}
}

func TestSelfTime(t *testing.T) {
	// Children [2,4] and [3,6] overlap; together they cover [2,6] of the
	// parent's [0,10], leaving 6 ns of self time.
	if got := covered([][2]int64{{3, 6}, {2, 4}, {12, 14}}, 0, 10); got != 4 {
		t.Fatalf("covered = %d, want 4", got)
	}
}
