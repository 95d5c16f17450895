package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the harness's
// own tables in step: workload names and why notes, metric names, units
// and order, and the bounds' limits.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if strings.Join(bf.Command, " ") != "bash clapbench/run.sh" || strings.Join(bf.Paths, " ") != "clapbench" {
		t.Errorf("command %q, paths %q", bf.Command, bf.Paths)
	}
	setupBound, maxBound := 0.0, 0.0
	for _, m := range bf.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, m := range bf.PerLayer {
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if e := bf.EndToEnd[i]; e.Name != m.name || e.Unit != m.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], harness %s [%s]", i, e.Name, e.Unit, m.name, m.unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if e := bf.PerLayer[i]; e.Name != m.name || e.Unit != m.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], harness %s [%s]", i, e.Name, e.Unit, m.name, m.unit)
		}
	}
}

// TestTinyRuns drives every workload end to end and traced at a tiny
// size: each run must pass its own correctness check, give every
// connection a verdict, and report exactly the declared metrics.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("trains fixture models and replays captures")
	}
	sizes := map[string]options{
		"clap-replay":    {conns: 120},
		"cascade-benign": {conns: 300},
		"clap-paced":     {rate: 1500},
	}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				o := sizes[w.name]
				o.workload, o.seed, o.seconds, o.trace = w.name, 7, 2, trace
				o.workers = runtime.GOMAXPROCS(0)
				o.minIters, o.minSetups = 1, 2
				o.workdir, o.sourceRoot = t.TempDir(), ".."
				// At this size the server's fixed costs outweigh the
				// layer work, so the gate against the served CPU is off.
				o.serveGate = 0
				var log strings.Builder
				res, err := run(o, &log)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				want := perLayer
				if trace == 0 {
					want = endToEnd
				}
				var got, names []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
					if trace == 0 && !(m.Value > 0) {
						t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
					}
				}
				for _, m := range want {
					names = append(names, m.name)
					if res.Metrics[m.name].Unit != m.unit {
						t.Errorf("%s unit %q, want %q", m.name, res.Metrics[m.name].Unit, m.unit)
					}
				}
				sort.Strings(got)
				sort.Strings(names)
				if strings.Join(got, ",") != strings.Join(names, ",") {
					t.Errorf("metrics %v, want %v", got, names)
				}
			})
		}
	}
}

func TestRefusesMoreWorkersThanCores(t *testing.T) {
	args := []string{"--workload", "clap-replay", "--workers", fmt.Sprint(runtime.GOMAXPROCS(0) + 1)}
	if _, err := parseOptions(args); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("parseOptions(%v) = %v, want a refusal", args, err)
	}
	if _, err := parseOptions([]string{"--workload", "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	page := `x_bucket{stage="a",le="0.1"} 50
x_bucket{stage="a",le="1"} 100
x_bucket{stage="a",le="+Inf"} 100
x_bucket{stage="b",le="0.1"} 0
x_bucket{stage="b",le="1"} 0
x_bucket{stage="b",le="+Inf"} 4
`
	if q, err := histQuantile(page, "x", `stage="a"`, 0.75); err != nil || math.Abs(q-0.55) > 1e-12 {
		t.Errorf("a p75 = %v, %v; want 0.55", q, err)
	}
	if q, err := histQuantile(page, "x", `stage="b"`, 0.99); err != nil || q != 1 {
		t.Errorf("b p99 = %v, %v; want the last finite bound 1", q, err)
	}
	if _, err := histQuantile(page, "x", `stage="c"`, 0.5); err == nil {
		t.Error("missing histogram read as a quantile")
	}
}
