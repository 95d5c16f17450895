package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"clap"
	"clap/internal/serve"
)

// idleFlush is clap-serve's default -idle-flush window.
const idleFlush = 5 * time.Second

// serveConfig mirrors clap-serve's defaults: all cores, micro-batch 24,
// lockstep off, 256-slot backpressured queue, drift monitoring on,
// tracing off, no ops listener, threshold calibrated from the benign
// pcap with the snapshot persisted beside the model.
func serveConfig(b clap.Backend, fx *fixture, workers int, onResult func(clap.Result)) serve.Config {
	return serve.Config{
		Backend:         b,
		ModelPath:       fx.modelPath,
		Workers:         workers,
		TopN:            5,
		QueueDepth:      256,
		IdleFlush:       idleFlush,
		DriftWindow:     256,
		DriftWindows:    4,
		DriftMaxShift:   0.5,
		DriftFPRFactor:  3,
		FPR:             calibFPR,
		Calibration:     clap.PCAPFile(fx.calibPath),
		CalibrationFile: fx.modelPath + ".calib",
		OnResult:        onResult,
	}
}

// startServer is the timed set-up: load the model file, build the server
// (with src, when given) and start it, which calibrates the threshold.
func startServer(ctx context.Context, fx *fixture, workers int, src clap.ServeSource, onResult func(clap.Result)) (*serve.Server, clap.Backend, time.Duration, error) {
	t0 := time.Now()
	b, err := clap.LoadBackendFile(fx.modelPath)
	if err != nil {
		return nil, nil, 0, err
	}
	srv, err := serve.New(serveConfig(b, fx, workers, onResult))
	if err != nil {
		return nil, nil, 0, err
	}
	if src != nil {
		srv.AddSource(src)
	}
	if err := srv.Start(ctx); err != nil {
		return nil, nil, 0, err
	}
	return srv, b, time.Since(t0), nil
}

// setupOnly times one set-up of a source-less server and shuts it down.
// Like a pass, it starts from a collected heap.
func setupOnly(fx *fixture, workers int) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	runtime.GC()
	srv, _, d, err := startServer(ctx, fx, workers, nil, nil)
	if err != nil {
		return 0, err
	}
	return d, srv.Shutdown(ctx)
}

// serveRun is one pass of the capture through a fresh server.
type serveRun struct {
	setup     time.Duration
	wall      time.Duration // Start returned → last verdict
	cpu       time.Duration // process user+sys over the same phase
	peakHeap  uint64        // peak live heap bytes above the idle heap before set-up
	gcWall    time.Duration // spent in the heap readings' forced collections
	gcCPU     time.Duration // process CPU over those readings
	verdicts  []verdict
	delivered int     // packets in served connections
	due       []int64 // per packet: ns after the phase start it was offered
	lag       []int64 // per packet, open loop only: write done − due, ns
	threshold float64
	backend   clap.Backend

	// Filled only when probing (traced runs).
	queueDepthMax float64
	gcShare       float64 // background collection's share of the busy CPU
	page          string  // the /metrics exposition after the run
}

// runServer replays the capture through clap.FollowPCAP into a fresh
// serve.Server and collects every verdict through Config.OnResult. With
// heap set the writer reads the peak heap, which forces collections
// inside the timed phase (see readHeap); with probe set a goroutine polls
// the queue depth and the /metrics page is kept.
func runServer(w workload, fx *fixture, cp *capture, ref *reference, workers int, heap, probe bool) (*serveRun, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := &serveRun{
		verdicts: make([]verdict, 0, ref.conns()+64),
		due:      make([]int64, cp.packets()),
	}
	if w.rate > 0 {
		run.lag = make([]int64, cp.packets())
	}
	var start time.Time
	var count atomic.Int64
	done := make(chan struct{})
	expect := int64(ref.conns())
	onResult := func(r clap.Result) {
		at := time.Since(start).Nanoseconds()
		i, ok := ref.index[idOf(r.Conn)]
		if !ok {
			i = -1
		}
		run.verdicts = append(run.verdicts, verdict{ref: i, score: r.Score, flagged: r.Flagged, at: at})
		run.delivered += r.Conn.Len()
		if count.Add(1) == expect {
			close(done)
		}
	}
	pr, pw := io.Pipe()
	src := clap.FollowPCAP("bench", pr, clap.LiveConfig{})

	// Two collections: the first moves sync.Pool contents to the pools'
	// victim caches, the second frees them, so the base does not depend
	// on what the previous pass left pooled. The base is read before
	// Start, so that the timed phase begins right after the source's
	// idle-flush ticker starts.
	runtime.GC()
	runtime.GC()
	base := liveHeap()
	srv, b, setup, err := startServer(ctx, fx, workers, src, onResult)
	if err != nil {
		pw.Close()
		return nil, err
	}
	run.setup, run.backend = setup, b
	run.threshold = srv.Threshold()

	// The heap is read after forced collections, on the writer's
	// goroutine, only when the writer knows the assembler is at its
	// fullest. Sampling the live heap instead would read it at whatever
	// moment a collection happened to end. Like the base, a reading
	// collects twice, so buffers parked in pools do not count. Each
	// reading's wall and process CPU time is kept, so a pass can take the
	// collections back out of its CPU figure.
	var peak uint64
	readHeap := func() {
		if !heap {
			return
		}
		c0, t0 := cpuTime(), time.Now()
		runtime.GC()
		runtime.GC()
		peak = max(peak, liveHeap())
		run.gcWall += time.Since(t0)
		run.gcCPU += cpuTime() - c0
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	h := srv.Handler()
	if probe {
		wg.Add(1)
		go func() { // queue-depth probe
			defer wg.Done()
			t := time.NewTicker(20 * time.Millisecond)
			defer t.Stop()
			for {
				if d, ok := promValue(scrape(h), "clap_serve_queue_depth"); ok && d > run.queueDepthMax {
					run.queueDepthMax = d
				}
				select {
				case <-stop:
					return
				case <-t.C:
				}
			}
		}()
	}

	cls0 := readCPUClasses()
	cpu0 := cpuTime()
	start = time.Now()
	writerDone := make(chan error, 1)
	if w.rate > 0 {
		go func() { writerDone <- writePaced(pw, cp, w.rate, start, run.due, run.lag, readHeap) }()
	} else {
		go func() { writerDone <- writeClosed(pw, cp, start, run.due, readHeap) }()
	}

	// Wait for every expected verdict. A run that stops producing verdicts
	// after the writer is done ends once the idle flush has had time to
	// act; what is missing is counted, not waited for. A server that stops
	// producing verdicts while the writer still writes has stopped
	// reading: closing the pipe unblocks the writer and fails the run.
	var werr error
	writing := true
	last, lastAt := int64(0), time.Now()
wait:
	for {
		select {
		case <-done:
			break wait
		case werr = <-writerDone:
			writing = false
			if werr != nil {
				break wait
			}
		case <-time.After(100 * time.Millisecond):
			if n := count.Load(); n != last {
				last, lastAt = n, time.Now()
			} else if !writing && time.Since(lastAt) > 3*idleFlush {
				break wait
			} else if writing && time.Since(lastAt) > 6*idleFlush {
				pr.CloseWithError(errors.New("the server stopped taking input"))
				break wait
			}
		}
	}
	cpu := cpuTime() - cpu0
	run.gcShare = readCPUClasses().gcShare(cls0)
	if writing {
		if err := <-writerDone; werr == nil {
			werr = err
		}
	}
	close(stop)
	wg.Wait()
	sctx, scancel := context.WithTimeout(context.Background(), time.Minute)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, fmt.Errorf("capture writer: %w", werr)
	}
	if n := len(run.verdicts); n > 0 {
		run.wall = time.Duration(run.verdicts[n-1].at)
	}
	// The collections' CPU comes back out. That is exact in an open loop
	// (see writePaced); a closed loop reads the heap only in a pass whose
	// times are not kept.
	run.cpu = cpu - run.gcCPU
	if peak > base {
		run.peakHeap = peak - base
	}
	if probe {
		run.page = scrape(h)
	}
	return run, nil
}

// writeClosed offers the capture as fast as the reader takes it, in
// 64 KiB writes cut at record boundaries. A packet is offered when the
// write that carries it starts. Once the last write is taken the
// assembler holds the whole capture, so the writer reads the heap then,
// before closing the stream. The collections this forces delay the end
// of input and run beside whatever is being scored, so a closed loop
// reads the heap in a pass of its own whose times are not kept.
func writeClosed(pw *io.PipeWriter, cp *capture, start time.Time, due []int64, readHeap func()) error {
	const chunk = 64 << 10
	off, i := 0, 0
	for i < len(cp.recEnd) {
		j := i
		for j < len(cp.recEnd) && (j == i || cp.recEnd[j]-off <= chunk) {
			j++
		}
		t := time.Since(start).Nanoseconds()
		for k := i; k < j; k++ {
			due[k] = t
		}
		if _, err := pw.Write(cp.pcap[off:cp.recEnd[j-1]]); err != nil {
			return err
		}
		off, i = cp.recEnd[j-1], j
	}
	readHeap()
	return pw.Close()
}

// paceTick is the open-loop writer's shortest sleep: it writes the
// packets that came due meanwhile in one write instead of waking for
// every packet.
const paceTick = time.Millisecond

// writePaced offers packet i at start + i/rate, writing whatever has come
// due at each wake-up in one write. lag records how late each packet's
// write completed against its schedule. The assembler is fullest, with
// nothing in flight, just before each idle-flush tick, so the writer
// reads the heap heapLead before every tick the schedule reaches; a
// schedule too short for a tick reads it after the last packet. While the
// writer collects, ingest waits on it and the last burst has long been
// scored, so the process CPU over a reading is the collections' own, and
// the pass subtracts it. The writer catches up with the schedule right
// after, well before the tick, so verdict times are not moved.
func writePaced(pw *io.PipeWriter, cp *capture, rate float64, start time.Time, due, lag []int64, readHeap func()) error {
	const heapLead = 250 * time.Millisecond
	n := len(cp.recEnd)
	for i := range due {
		due[i] = int64(float64(i) / rate * 1e9)
	}
	nextMark := int64(idleFlush - heapLead)

	if _, err := pw.Write(cp.pcap[:24]); err != nil {
		return err
	}
	off, i := 24, 0
	for i < n {
		now := time.Since(start).Nanoseconds()
		if due[i] > now {
			time.Sleep(max(time.Duration(due[i]-now), paceTick))
			continue
		}
		j := i
		for j < n && due[j] <= now {
			j++
		}
		if _, err := pw.Write(cp.pcap[off:cp.recEnd[j-1]]); err != nil {
			return err
		}
		t := time.Since(start).Nanoseconds()
		for k := i; k < j; k++ {
			lag[k] = t - due[k]
		}
		off, i = cp.recEnd[j-1], j
		if due[j-1] >= nextMark {
			readHeap()
			nextMark += int64(idleFlush)
		}
	}
	if nextMark == int64(idleFlush-heapLead) {
		readHeap()
	}
	return pw.Close()
}

// pacedLagEnds is the writer's lag, in ms, at the last packet of each
// idle-flush window of the schedule and at the very last packet.
func pacedLagEnds(run *serveRun, rate float64) []float64 {
	per := int(rate * idleFlush.Seconds())
	var ends []float64
	for i := per - 1; i < len(run.lag); i += per {
		ends = append(ends, float64(run.lag[i])/1e6)
	}
	if n := len(run.lag); n > 0 && n%per != 0 {
		ends = append(ends, float64(run.lag[n-1])/1e6)
	}
	return ends
}

// pacedValidity checks that an open-loop run measured what it offered:
// every offered packet that decodes reached the server, and the writer's
// backlog (its lag at the end of each idle-flush window) was not still
// growing when the schedule ended.
func pacedValidity(ref *reference, run *serveRun, rate float64) error {
	if run.delivered < ref.decoded {
		return fmt.Errorf("open loop invalid: %d of %d offered packets delivered", run.delivered, ref.decoded)
	}
	if ends := pacedLagEnds(run, rate); len(ends) >= 2 {
		prev, final := ends[len(ends)-2], ends[len(ends)-1]
		if final > 250 && final > prev+50 {
			return fmt.Errorf("open loop invalid: writer backlog still growing at the end (%.0f ms after %.0f ms)", final, prev)
		}
	}
	return nil
}

// latencies returns each verdict's delay past the due time of its
// connection's last packet, in ms.
func latencies(run *serveRun, ref *reference) []float64 {
	out := make([]float64, 0, len(run.verdicts))
	for _, v := range run.verdicts {
		if v.ref >= 0 {
			out = append(out, float64(v.at-run.due[ref.lastPkt[v.ref]])/1e6)
		}
	}
	return out
}

// liveHeap reads the heap bytes the last garbage collection found live,
// without stopping the world.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuClasses are the runtime's estimates of where its CPU time went.
// They are only comparable with each other.
type cpuClasses struct{ total, idle, gc, assist float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/assist:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// gcShare is the share of the busy CPU time since since that went to
// collection outside the allocating goroutines: the background and idle
// mark workers and the pauses. Assists run inside the goroutine that
// allocates, so a layer timed from outside already holds its own.
func (c cpuClasses) gcShare(since cpuClasses) float64 {
	busy := (c.total - since.total) - (c.idle - since.idle)
	if busy <= 0 {
		return 0
	}
	return ((c.gc - since.gc) - (c.assist - since.assist)) / busy
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scrape renders the server's /metrics page in-process.
func scrape(h http.Handler) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// promValue reads one unlabelled sample from an exposition.
func promValue(page, name string) (float64, bool) {
	sc := bufio.NewScanner(strings.NewReader(page))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// histQuantile is Prometheus' histogram_quantile over one labelled
// histogram of an exposition: linear interpolation inside the bucket that
// holds the q-th observation.
func histQuantile(page, name, labels string, q float64) (float64, error) {
	var bounds, cum []float64
	prefix := name + "_bucket{" + labels + ",le=\""
	sc := bufio.NewScanner(strings.NewReader(page))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		le, count, ok := strings.Cut(rest, "\"} ")
		if !ok {
			continue
		}
		b := 0.0
		if le == "+Inf" {
			b = -1
		} else if v, err := strconv.ParseFloat(le, 64); err == nil {
			b = v
		}
		c, err := strconv.ParseFloat(count, 64)
		if err != nil {
			return 0, err
		}
		bounds, cum = append(bounds, b), append(cum, c)
	}
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0, errors.New("empty histogram " + name + "{" + labels + "}")
	}
	rank := q * cum[len(cum)-1]
	lo, prev := 0.0, 0.0
	for i, c := range cum {
		if c >= rank {
			if bounds[i] < 0 { // +Inf bucket: the last finite bound
				return lo, nil
			}
			if c == prev {
				return bounds[i], nil
			}
			return lo + (bounds[i]-lo)*(rank-prev)/(c-prev), nil
		}
		if bounds[i] >= 0 {
			lo = bounds[i]
		}
		prev = c
	}
	return lo, nil
}

// cpuClock is the box's cumulative CPU time in clock ticks, and how much
// of it the hypervisor stole: time a virtual CPU wanted to run and did not.
type cpuClock struct{ total, steal uint64 }

// readCPUClock reads the aggregate line of /proc/stat; ok is false where
// the kernel does not expose it.
func readCPUClock() (c cpuClock, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return c, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return c, false
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c, true
}

// stolenShare is the share of the box's CPU time stolen between two
// readings (0 when either is missing).
func stolenShare(a, b cpuClock, ok bool) float64 {
	if !ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
