// Command clapbench is the capture-to-verdict benchmark of clap-serve. For
// one workload and seed it generates a capture, drives an in-process
// serve.Server through clap.FollowPCAP with clap-serve's defaults, checks
// every verdict against an offline re-scoring of the same bytes, and
// prints every metric by name with its unit. With --trace 1 it instead
// runs the per-layer traced replay and reports the per-layer table.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from the checkout's source.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"clap"
)

// metric is one reported number; the lists below are the names and units
// BENCHMARK.json declares.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var endToEnd = []struct{ name, unit string }{
	{"pkts_per_s", "packets/s"},
	{"cpu_us_per_pkt", "us"},
	{"verdict_latency_p50_ms", "ms"},
	{"verdict_latency_p99_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
	{"auc", "ratio"},
	{"eer", "ratio"},
}

// stagedLayers are reported in total and split by model stage: .s1 is a
// cascade's screen, .s2 the stage a verdict ends in (all of a
// single-model backend).
var stagedLayers = []string{
	"features.vectorize_ns_per_pkt",
	"nn.gru_gates_ns_per_pkt",
	"core.windows_ns_per_pkt",
	"nn.ae_ns_per_window",
}

// perLayer lists the traced metrics in pipeline order; core.windows is
// inclusive, and its children features.vectorize and nn.gru_gates come
// just before it.
var perLayer = func() []struct{ name, unit string } {
	type m = struct{ name, unit string }
	staged := func(name string) []m {
		return []m{{name, "ns"}, {name + ".s1", "ns"}, {name + ".s2", "ns"}}
	}
	var out []m
	out = append(out,
		m{"pcapio.read_ns_per_pkt", "ns"},
		m{"packet.decode_ns_per_pkt", "ns"},
		m{"packet.allocs_per_pkt", "count"},
		m{"flow.feed_ns_per_pkt", "ns"},
		m{"flow.allocs_per_pkt", "count"},
		m{"flow.open_conns_max", "count"},
		m{"flow.open_pkts_max", "count"})
	out = append(out, staged(stagedLayers[0])...)
	out = append(out, m{"features.allocs_per_pkt", "count"})
	out = append(out, staged(stagedLayers[1])...)
	out = append(out, staged(stagedLayers[2])...)
	out = append(out, m{"core.windows_per_pkt", "count"}, m{"core.allocs_per_pkt", "count"})
	out = append(out, staged(stagedLayers[3])...)
	out = append(out,
		m{"nn.ae_allocs_per_window", "count"},
		m{"backend.summarize_ns_per_conn", "ns"},
		m{"backend.escalated_frac", "fraction"},
		m{"runtime.gc_cpu_frac", "fraction"},
		m{"engine.batch_fill", "fraction"},
		m{"serve.queue_wait_p99_ms", "ms"},
		m{"serve.score_p99_ms", "ms"},
		m{"serve.emit_wait_p99_ms", "ms"},
		m{"serve.queue_depth_max", "count"},
		m{"bench.gen_lag_p99_ms", "ms"},
		m{"bench.trace_overhead_frac", "fraction"},
		m{"bench.trace_coverage", "fraction"},
		m{"bench.serve_coverage", "fraction"})
	return out
}()

// minCoverage is the share of the traced replay's wall time, less the
// meter's own malloc-count reads, the layer spans must explain for the
// per-layer table to count as complete.
const minCoverage = 0.90

// minServeCoverage is the share of the served path's CPU time the layer
// spans must explain at the workloads' own sizes. It is lower than
// minCoverage because the replay and the server passes run at different
// moments, and on a shared virtual machine the same work takes up to a
// third longer at one moment than at the next: with the passes either
// side averaged, runs still read from 82% to 114%. It catches a left-out
// stage that takes 30% of the CPU.
const minServeCoverage = 0.70

// options are one run's settings. Only the first five are flags; the
// rest are the workload's sizes and the run's repeat counts, which the
// self-test shrinks.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	workers    int
	conns      int     // closed-loop connections (0: the workload's)
	rate       float64 // open-loop packets/s (0: the workload's)
	minIters   int     // fewest timed server passes in a closed loop
	minSetups  int     // fewest set-ups timed per run
	workdir    string  // scratch for the fixture model and calibration corpus
	sourceRoot string  // checkout whose sources the result's digest names
	// serveGate is the least share of the served path's CPU the layer
	// spans must explain (minServeCoverage). A tiny open-loop pass is
	// mostly the server idling through its idle-flush wait, so the
	// self-test turns the gate off.
	serveGate float64
}

func parseOptions(args []string) (options, error) {
	o := options{
		minIters:   3,
		minSetups:  9,
		workdir:    filepath.Join(".bench_build", "work"),
		sourceRoot: ".",
		serveGate:  minServeCoverage,
	}
	fs := flag.NewFlagSet("clapbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the capture is generated from it (the fixture model and calibration corpus are fixed)")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to measure; an open loop offers traffic for this long")
	fs.IntVar(&o.trace, "trace", 0, "1: run the traced per-layer replay instead of the end-to-end runs")
	fs.IntVar(&o.workers, "workers", 0, "scoring workers (0: GOMAXPROCS; more than GOMAXPROCS is refused)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloadByName(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds must be positive")
	}
	procs := runtime.GOMAXPROCS(0)
	if o.workers == 0 {
		o.workers = procs
	}
	if o.workers < 1 || o.workers > procs {
		return o, fmt.Errorf("refusing %d scoring workers on GOMAXPROCS=%d: more workers than cores measures contention, not the program", o.workers, procs)
	}
	return o, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "clapbench:", err)
		}
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clapbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clapbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload at one seed, printing the box, the run and
// the metric table to out, and returns the result object.
func run(o options, out io.Writer) (*result, error) {
	w, _ := workloadByName(o.workload)
	if o.conns > 0 {
		w.conns = o.conns
	}
	if o.rate > 0 {
		w.rate = o.rate
	}
	bx := describeBox(o.sourceRoot)
	fmt.Fprintf(out, "box: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", bx.cpu, bx.nproc, bx.gomaxprocs, bx.goVersion)
	fmt.Fprintf(out, "code: commit=%s source-digest=%s\n", bx.commit, bx.source)

	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	trainStart := time.Now()
	fx, err := trainFixture(dir, w.backend)
	if err != nil {
		return nil, err
	}
	trained := time.Since(trainStart)
	conns, maxPackets := w.conns, 0
	if w.rate > 0 {
		// Enough connections to fill the schedule; the capture keeps the
		// prefix that fits.
		maxPackets = int(w.rate * o.seconds)
		conns = maxPackets/12 + 1
	}
	cp, err := generate(w, o.seed, conns, maxPackets)
	if err != nil {
		return nil, err
	}
	ref, err := buildReference(fx, cp, o.workers)
	if err != nil {
		return nil, err
	}
	loop := "closed loop, one source read as fast as the queue accepts"
	if w.rate > 0 {
		loop = fmt.Sprintf("open loop at %.0f packets/s", w.rate)
	}
	fmt.Fprintf(out, "run: workload=%s seed=%d trace=%d workers=%d backend=%s model=%s (trained in %.2f s) threshold=%.6g\n",
		w.name, o.seed, o.trace, o.workers, w.backend, fx.modelHash, trained.Seconds(), ref.threshold)
	fmt.Fprintf(out, "capture: %d connections, %d packets (%d do not decode), %d bytes; %s\n",
		ref.conns(), cp.packets(), cp.packets()-ref.decoded, len(cp.pcap), loop)

	if o.trace == 1 {
		return traced(w, o, fx, cp, ref, out)
	}
	return endToEndRuns(w, o, fx, cp, ref, out)
}

// tally accumulates one run's pass/fail state.
type tally struct {
	res      result
	problems []string
}

func newTally() *tally {
	return &tally{res: result{Correct: true, Metrics: map[string]metric{}}}
}

func (t *tally) problem(format string, args ...any) {
	t.res.Correct = false
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// served folds one server pass's verdict check into the tally.
func (t *tally) served(w workload, ref *reference, run *serveRun) {
	cr := check(ref, run.verdicts, run.threshold)
	t.res.Attempted += ref.conns()
	t.res.Failed += cr.missing
	for _, m := range cr.mismatches {
		t.problem("verdict mismatch: %s", m)
	}
	if w.rate > 0 {
		if err := pacedValidity(ref, run, w.rate); err != nil {
			t.problem("%v", err)
		}
	}
}

func (t *tally) finish(out io.Writer) *result {
	if t.res.Attempted > 0 {
		fmt.Fprintf(out, "verdicts: %d connections attempted, %d without a verdict (failed_frac %.6f)\n",
			t.res.Attempted, t.res.Failed, float64(t.res.Failed)/float64(t.res.Attempted))
	}
	for _, p := range t.problems {
		fmt.Fprintln(out, "FAIL:", p)
	}
	return &t.res
}

// stealLimit marks a sample as disturbed: on a virtual machine the
// hypervisor can take the CPUs away for seconds at a time, and a pass
// timed then measures the neighbours, not the program. Even a few percent
// stolen slows the rest of the pass measurably.
const stealLimit = 0.02

// maxOpenPasses bounds the open-loop passes one run makes while looking
// for an undisturbed one.
const maxOpenPasses = 2

// sample is one timed pass or set-up and the CPU share stolen during it.
type sample struct {
	vals   map[string]float64
	stolen float64
}

func undisturbed(all []sample) []sample {
	var clean []sample
	for _, s := range all {
		if s.stolen <= stealLimit {
			clean = append(clean, s)
		}
	}
	return clean
}

// pick returns the undisturbed samples when there are at least want of
// them, and otherwise the want samples least disturbed.
func pick(all []sample, want int) (use []sample, left int) {
	use = undisturbed(all)
	if len(use) < want {
		use = append([]sample(nil), all...)
		sort.SliceStable(use, func(i, j int) bool { return use[i].stolen < use[j].stolen })
		use = use[:min(want, len(use))]
	}
	return use, len(all) - len(use)
}

// endToEndRuns reports each end-to-end metric's median over untraced
// server passes. A closed loop first makes one pass that only reads the
// peak heap (its forced collections would distort the times), then at
// least minIters timed passes, and more until --seconds of undisturbed
// timed phase have run or 1.5 times that in all. An open loop makes one
// pass of --seconds, which reads the heap and times, and another (up to
// maxOpenPasses) while none was undisturbed.
func endToEndRuns(w workload, o options, fx *fixture, cp *capture, ref *reference, out io.Writer) (*result, error) {
	t := newTally()
	minPasses := o.minIters
	var heap []sample // a closed loop's one heap reading
	if w.rate > 0 {
		minPasses = 1
	} else {
		run, err := runServer(w, fx, cp, ref, o.workers, true, false)
		if err != nil {
			return nil, err
		}
		t.served(w, ref, run)
		mb := float64(run.peakHeap) / (1 << 20)
		heap = []sample{{vals: map[string]float64{"peak_heap_mb": mb}}}
		fmt.Fprintf(out, "heap pass: peak heap %.2f MB above base; its forced collections took %.1f ms (%.1f ms CPU); its times are not kept\n",
			mb, msOf(run.gcWall), msOf(run.gcCPU))
	}
	var passes []sample
	var clean, total time.Duration
	more := func() bool {
		switch {
		case len(passes) < minPasses:
			return true
		case w.rate > 0:
			return len(undisturbed(passes)) == 0 && len(passes) < maxOpenPasses
		}
		return clean.Seconds() < o.seconds && total.Seconds() < 1.5*o.seconds
	}
	for more() {
		c0, ok0 := readCPUClock()
		run, err := runServer(w, fx, cp, ref, o.workers, w.rate > 0, false)
		if err != nil {
			return nil, err
		}
		c1, ok1 := readCPUClock()
		t.served(w, ref, run)
		pkts := float64(cp.packets())
		lat := latencies(run, ref)
		auc, eer := detection(ref, run.verdicts)
		s := sample{stolen: stolenShare(c0, c1, ok0 && ok1), vals: map[string]float64{
			"pkts_per_s":             pkts / run.wall.Seconds(),
			"cpu_us_per_pkt":         float64(run.cpu.Microseconds()) / pkts,
			"verdict_latency_p50_ms": percentile(lat, 0.50),
			"verdict_latency_p99_ms": percentile(lat, 0.99),
			"setup_s":                run.setup.Seconds(),
			"auc":                    auc,
			"eer":                    eer,
		}}
		if w.rate > 0 {
			s.vals["peak_heap_mb"] = float64(run.peakHeap) / (1 << 20)
			fmt.Fprintf(out, "heap readings: forced collections took %.1f ms (%.1f ms CPU, taken out of cpu_us_per_pkt)\n",
				msOf(run.gcWall), msOf(run.gcCPU))
		}
		passes = append(passes, s)
		fmt.Fprintf(out, "pass %d: %.0f packets/s, %.2f us CPU per packet, %.1f%% stolen\n",
			len(passes), s.vals["pkts_per_s"], s.vals["cpu_us_per_pkt"], 100*s.stolen)
		total += run.wall
		if s.stolen <= stealLimit {
			clean += run.wall
		}
		if w.rate > 0 {
			fmt.Fprintf(out, "open loop: writer lag at the end of each %v window (ms): %.0f\n", idleFlush, pacedLagEnds(run, w.rate))
		}
	}
	used, left := pick(passes, minPasses)
	fmt.Fprintf(out, "passes: %d server passes, %.2f s timed; %d left out for hypervisor steal\n",
		len(passes), total.Seconds(), left)

	// Set-up samples: those of the passes kept, then source-less set-ups
	// until enough undisturbed ones are in.
	var setups []sample
	for _, s := range used {
		setups = append(setups, sample{stolen: s.stolen, vals: map[string]float64{"setup_s": s.vals["setup_s"]}})
	}
	for len(undisturbed(setups)) < o.minSetups && len(setups) < 3*o.minSetups {
		c0, ok0 := readCPUClock()
		d, err := setupOnly(fx, o.workers)
		if err != nil {
			return nil, err
		}
		c1, ok1 := readCPUClock()
		setups = append(setups, sample{stolen: stolenShare(c0, c1, ok0 && ok1), vals: map[string]float64{"setup_s": d.Seconds()}})
	}
	setups, _ = pick(setups, o.minSetups)

	fmt.Fprintf(out, "%-26s %-10s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range endToEnd {
		from := used
		switch {
		case m.name == "setup_s":
			from = setups
		case m.name == "peak_heap_mb" && heap != nil:
			from = heap
		}
		var xs []float64
		for _, s := range from {
			xs = append(xs, s.vals[m.name])
		}
		q1, med, q3 := quartiles(xs)
		fmt.Fprintf(out, "%-26s %-10s %14.6g %14.6g %14.6g %4d\n", m.name, m.unit, med, q1, q3, len(xs))
		t.res.Metrics[m.name] = metric{Value: med, Unit: m.unit}
	}
	return t.finish(out), nil
}

// traced runs one probed server pass for the serving-layer metrics, then
// the layer replay twice, untimed and timed, for the per-layer table and
// the tracing overhead, then one more server pass, so the replay can be
// held against the mean CPU time of the passes either side of it.
func traced(w workload, o options, fx *fixture, cp *capture, ref *reference, out io.Writer) (*result, error) {
	t := newTally()
	run, err := runServer(w, fx, cp, ref, o.workers, false, true)
	if err != nil {
		return nil, err
	}
	t.served(w, ref, run)
	vals := map[string]float64{}

	vals["backend.escalated_frac"] = 1
	if c, ok := run.backend.(*clap.CascadeBackend); ok {
		ev, esc := c.EscalationCounts()
		if ev == 0 {
			t.problem("cascade evaluated no connections")
		} else {
			vals["backend.escalated_frac"] = float64(esc) / float64(ev)
		}
	}
	if v, ok := promValue(run.page, "clap_serve_batch_fill"); ok {
		vals["engine.batch_fill"] = v
	} else {
		t.problem("no clap_serve_batch_fill in /metrics")
	}
	for stage, name := range map[string]string{
		"queue": "serve.queue_wait_p99_ms",
		"score": "serve.score_p99_ms",
		"emit":  "serve.emit_wait_p99_ms",
	} {
		q, err := histQuantile(run.page, "clap_serve_stage_latency_seconds", fmt.Sprintf("stage=%q", stage), 0.99)
		if err != nil {
			t.problem("%v", err)
		}
		vals[name] = q * 1e3
	}
	vals["serve.queue_depth_max"] = run.queueDepthMax
	if run.lag != nil {
		lag := make([]float64, len(run.lag))
		for i, l := range run.lag {
			lag[i] = float64(l) / 1e6
		}
		vals["bench.gen_lag_p99_ms"] = percentile(lag, 0.99)
	}

	b := run.backend
	untimed, err := replay(w, cp, ref, b, false)
	if err != nil {
		return nil, err
	}
	st, err := replay(w, cp, ref, b, true)
	if err != nil {
		return nil, err
	}
	if st.mismatches+untimed.mismatches > 0 {
		t.problem("layer replay: %d scores differ from the offline re-scoring", st.mismatches+untimed.mismatches)
	}
	coverage := float64(st.covered()) / float64((st.wall - st.meterTime).Nanoseconds())
	if coverage < minCoverage {
		t.problem("layer spans explain %.1f%% of the traced wall time (malloc-count reads left out), want >= %.0f%%", 100*coverage, 100*minCoverage)
	}
	vals["bench.trace_coverage"] = coverage

	// The replay against the program: the layer work the served path does
	// once per packet (core.windows includes its children) ÷ the server
	// passes' process CPU, plus their background collection, which the
	// replay's spans cannot hold. Work the replay leaves out — the
	// source's reader and channel, the ingest queue, the stream's workers
	// and emit, the drift monitor, OnResult — lowers it.
	after, err := runServer(w, fx, cp, ref, o.workers, false, false)
	if err != nil {
		return nil, err
	}
	t.served(w, ref, after)
	served := st.read.ns + st.decode.ns + st.feed.ns + st.summarize.ns
	for _, s := range st.stage {
		served += s.windows.ns + s.ae.ns
	}
	serveCPU := (run.cpu + after.cpu) / 2
	gcShare := (run.gcShare + after.gcShare) / 2
	vals["runtime.gc_cpu_frac"] = gcShare
	serveCov := float64(served)/float64(serveCPU.Nanoseconds()) + gcShare
	if serveCov < o.serveGate {
		t.problem("layer spans explain %.1f%% of the served path's CPU time, want >= %.0f%%", 100*serveCov, 100*o.serveGate)
	}
	vals["bench.serve_coverage"] = serveCov
	vals["bench.trace_overhead_frac"] = st.wall.Seconds()/untimed.wall.Seconds() - 1

	pkts := float64(st.packets)
	vals["pcapio.read_ns_per_pkt"] = float64(st.read.ns) / pkts
	vals["packet.decode_ns_per_pkt"] = float64(st.decode.ns) / pkts
	vals["packet.allocs_per_pkt"] = float64(st.decode.allocs) / pkts
	vals["flow.feed_ns_per_pkt"] = float64(st.feed.ns) / pkts
	vals["flow.allocs_per_pkt"] = float64(st.feed.allocs) / pkts
	vals["flow.open_conns_max"] = float64(st.openConnsMax)
	vals["flow.open_pkts_max"] = float64(st.openPktsMax)
	vals["backend.summarize_ns_per_conn"] = float64(st.summarize.ns) / float64(st.conns)
	var vecAllocs, winAllocs, aeAllocs uint64
	var windows int
	for i, s := range st.stage {
		suffix := fmt.Sprintf(".s%d", i+1)
		vals["features.vectorize_ns_per_pkt"+suffix] = float64(s.vectorize.ns) / pkts
		vals["nn.gru_gates_ns_per_pkt"+suffix] = float64(s.gates.ns) / pkts
		vals["core.windows_ns_per_pkt"+suffix] = float64(s.windows.ns) / pkts
		vals["nn.ae_ns_per_window"+suffix] = perWindow(s.ae.ns, s.windowsN)
		vecAllocs += s.vectorize.allocs
		winAllocs += s.windows.allocs
		aeAllocs += s.ae.allocs
		windows += s.windowsN
	}
	for _, name := range stagedLayers[:3] {
		vals[name] = vals[name+".s1"] + vals[name+".s2"]
	}
	vals["nn.ae_ns_per_window"] = perWindow(st.stage[0].ae.ns+st.stage[1].ae.ns, windows)
	vals["features.allocs_per_pkt"] = float64(vecAllocs) / pkts
	vals["core.windows_per_pkt"] = float64(windows) / pkts
	vals["core.allocs_per_pkt"] = float64(winAllocs) / pkts
	vals["nn.ae_allocs_per_window"] = perWindow(int64(aeAllocs), windows)

	fmt.Fprintf(out, "traced replay: %.3f s timed (%.3f s of it reading malloc counts), %.3f s untimed, layer spans cover %.1f%% of the rest; the served path's layer work and background collection (%.1f%%) make %.1f%% of the server passes' CPU (%.3f s before, %.3f s after)\n",
		st.wall.Seconds(), st.meterTime.Seconds(), untimed.wall.Seconds(), 100*coverage, 100*gcShare, 100*serveCov, run.cpu.Seconds(), after.cpu.Seconds())
	fmt.Fprintf(out, "%-36s %-9s %14s %8s\n", "layer metric", "unit", "value", "of wall")
	for _, m := range perLayer {
		t.res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		share := ""
		if ns := spanOf(st, m.name); ns > 0 {
			share = fmt.Sprintf("%7.1f%%", 100*float64(ns)/float64(st.wall.Nanoseconds()))
		}
		fmt.Fprintf(out, "%-36s %-9s %14.6g %8s\n", m.name, m.unit, vals[m.name], share)
	}
	return t.finish(out), nil
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func perWindow(n int64, windows int) float64 {
	if windows == 0 {
		return 0
	}
	return float64(n) / float64(windows)
}

// spanOf maps a timing metric to the span behind it, for the table's
// share-of-wall column.
func spanOf(st *replayStats, name string) int64 {
	stage := func(f func(stageSpans) span) int64 {
		switch {
		case strings.HasSuffix(name, ".s1"):
			return f(st.stage[0]).ns
		case strings.HasSuffix(name, ".s2"):
			return f(st.stage[1]).ns
		}
		return f(st.stage[0]).ns + f(st.stage[1]).ns
	}
	base, _, _ := strings.Cut(name, "_per_")
	switch base {
	case "pcapio.read_ns":
		return st.read.ns
	case "packet.decode_ns":
		return st.decode.ns
	case "flow.feed_ns":
		return st.feed.ns
	case "backend.summarize_ns":
		return st.summarize.ns
	case "features.vectorize_ns":
		return stage(func(s stageSpans) span { return s.vectorize })
	case "nn.gru_gates_ns":
		return stage(func(s stageSpans) span { return s.gates })
	case "core.windows_ns":
		return stage(func(s stageSpans) span { return s.windows })
	case "nn.ae_ns":
		return stage(func(s stageSpans) span { return s.ae })
	}
	return 0
}
