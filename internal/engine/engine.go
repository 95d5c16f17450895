// Package engine is CLAP's sharded, worker-pool scoring engine. Every
// stage-(d) quantity — adversarial scores, window errors, localization,
// RNN accuracy — is independent across connections, so the engine fans
// connections out to a configurable worker pool and merges results
// deterministically: output slot i always holds connection i's result, and
// because the inference paths in internal/nn and internal/core are
// scratch-free (audited; regression-tested under -race), the numbers are
// bit-identical to the serial path at any worker count.
//
// The engine also parallelizes flow assembly: packets are partitioned into
// shards by an FNV-1a hash of the direction-insensitive connection 4-tuple,
// each shard is assembled independently, and the shard outputs are merged
// back into exact capture order (the order flow.Assemble would have
// produced serially).
//
// For backends exposing the backend.BatchScorer capability the engine also
// batches inference itself: WindowErrorsBatched pools the stacked windows
// of many queued connections into micro-batches (Options.Batch windows per
// batch) so the autoencoder runs one matrix-matrix pass per batch instead
// of one matrix-vector pass per window — same bits, a fraction of the
// wall clock.
//
// For backends that additionally expose backend.LockstepScorer the engine
// batches the other axis too: window *production* runs a recurrence, and
// with Options.Lockstep > 0 a ragged fleet scheduler steps up to Lockstep
// connections' recurrences together — one matrix-matrix pass per gate per
// step instead of one matrix-vector pass per connection per step. Rows
// retire as their sequences end, vacant rows refill from the queued group,
// and the active prefix compacts without ever reordering a row's own step
// sequence, so every row's windows stay bit-identical to the serial path.
// Composite backends (backend.GroupScorer) route whole groups through
// their internal stages with the same kernels.
//
// The zero-config entry point is Default(); New lets callers pin worker,
// shard, micro-batch and lockstep counts. An Engine holds no per-call
// state — only monotonic occupancy counters (LockstepFill) — and is safe
// for concurrent use.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"clap/internal/backend"
	"clap/internal/core"
	"clap/internal/flow"
	"clap/internal/packet"
	"clap/internal/tcpstate"
)

// DefaultBatch is the micro-batch size batched scoring defaults to —
// tuned by BenchmarkBackendThroughput: the pkts/s curve is flat from ~6
// windows up, so the knob mostly trades cache residency against batch
// fill. 24 keeps one batch's activations L2-resident, is a multiple of
// the kernel's 6-lane block (so no window rides the slower tail lanes),
// and still fills well from a single average connection in stream mode.
const DefaultBatch = 24

// minChunk is the smallest per-worker share of a ParallelFor that pays
// for its goroutine: below it, handing items across the pool costs more
// than scoring them in place (BENCH_pr3.json: clap at workers=8 was
// *slower* than serial on a 1-CPU box), so the engine shrinks the pool to
// keep at least minChunk items per worker and falls back to the serial
// loop when even two workers cannot be fed. Two is deliberately gentle:
// per-connection items are coarse (milliseconds each), so a small capture
// of heavy flows on a real multi-core box keeps most of its fan-out —
// only runs of two or three connections drop to the serial loop.
const minChunk = 2

// Options configures an Engine.
type Options struct {
	// Workers is the scoring goroutine count; <= 0 selects GOMAXPROCS.
	Workers int
	// Shards is the assembly shard count; <= 0 mirrors Workers.
	Shards int
	// Batch is the micro-batch size for backends implementing
	// backend.BatchScorer: how many windows ride one batched inference
	// pass. <= 0 selects DefaultBatch; 1 disables batching.
	Batch int
	// Lockstep is the cross-connection GRU batching width for backends
	// implementing backend.LockstepScorer: how many connections' gate
	// recurrences step together through one matrix-matrix pass per gate.
	// 0 (the default) disables lockstep — the per-connection window
	// production path runs exactly as before, byte for byte. Widths that
	// are multiples of the MulMat kernel's lane block (8 on the AVX2
	// kernel, 6 on the pure-Go one; e.g. DefaultLockstep) keep every
	// fleet row off the slower tail lanes.
	Lockstep int
}

// DefaultLockstep is the lockstep width the CLIs default to when the
// feature is switched on without an explicit width: equal to
// DefaultBatch, so a full fleet feeds full micro-batches, and a multiple
// of both MulMat lane blocks (see BENCH_pr9.json's sweep — throughput is
// flat from ~6 rows up once the recurrent projections batch, so the knob
// mostly trades fleet memory against fill).
const DefaultLockstep = 24

// Engine schedules per-connection work across a worker pool.
type Engine struct {
	workers  int
	shards   int
	batch    int
	lockstep int

	// Lockstep occupancy counters (LockstepFill): rows actually stepped
	// vs. fleet slots available over the same steps. The engine is
	// otherwise stateless; these are monotonic stats, safe concurrently.
	lsRows  atomic.Uint64
	lsSlots atomic.Uint64
}

// New builds an engine from options.
func New(o Options) *Engine {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	s := o.Shards
	if s <= 0 {
		s = w
	}
	b := o.Batch
	if b <= 0 {
		b = DefaultBatch
	}
	ls := o.Lockstep
	if ls < 0 {
		ls = 0
	}
	return &Engine{workers: w, shards: s, batch: b, lockstep: ls}
}

// Default returns an engine sized to the machine.
func Default() *Engine { return New(Options{}) }

// Workers reports the configured worker count.
func (e *Engine) Workers() int { return e.workers }

// Shards reports the configured assembly shard count.
func (e *Engine) Shards() int { return e.shards }

// Batch reports the configured micro-batch size (1: batching disabled).
func (e *Engine) Batch() int { return e.batch }

// Lockstep reports the configured cross-connection lockstep width
// (0: disabled).
func (e *Engine) Lockstep() int { return e.lockstep }

// LockstepFill reports fleet occupancy since the engine was built: of the
// fleet slots available across every lockstep step taken, the fraction
// that held a live connection row. The ragged scheduler compacts the
// active prefix so idle slots cost no arithmetic — fill below 1.0 means
// groups drained toward their stragglers (smaller -lockstep or larger
// groups raise it), not that compute was wasted on padding. Returns 0
// before any lockstep work has run.
func (e *Engine) LockstepFill() float64 {
	slots := e.lsSlots.Load()
	if slots == 0 {
		return 0
	}
	return float64(e.lsRows.Load()) / float64(slots)
}

// ParallelFor runs fn(i) for every i in [0, n) across the worker pool. Work
// is handed out through an atomic cursor, so callers writing fn results
// into slot i of a pre-sized slice get deterministic output regardless of
// scheduling. fn must be safe to call concurrently.
//
// Small inputs do not fan out: the pool is shrunk so every worker gets at
// least minChunk items, dropping to the plain serial loop when even two
// workers cannot be fed — an explicit -workers flag never pessimizes a
// small run. Results are identical either way; only scheduling changes.
func (e *Engine) ParallelFor(n int, fn func(i int)) {
	e.parallelFor(n, minChunk, fn)
}

// parallelForWide is ParallelFor without the small-n serial fallback, for
// coarse-grained items (assembly shards, micro-batches) where one item is
// itself a large unit of work worth its own goroutine.
func (e *Engine) parallelForWide(n int, fn func(i int)) {
	e.parallelFor(n, 1, fn)
}

func (e *Engine) parallelFor(n, minPer int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := e.workers
	if w > n/minPer {
		w = n / minPer
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ScoreAll scores every connection with the detector, preserving input
// order. Scores are bit-identical to calling det.Score serially.
func (e *Engine) ScoreAll(det *core.Detector, conns []*flow.Connection) []core.Score {
	out := make([]core.Score, len(conns))
	e.ParallelFor(len(conns), func(i int) { out[i] = det.Score(conns[i]) })
	return out
}

// AdversarialScores returns only the scalar adversarial score per
// connection, in input order.
func (e *Engine) AdversarialScores(det *core.Detector, conns []*flow.Connection) []float64 {
	out := make([]float64, len(conns))
	e.ParallelFor(len(conns), func(i int) { out[i] = det.Score(conns[i]).Adversarial })
	return out
}

// MapFloat evaluates an arbitrary per-connection scalar (e.g. a baseline
// detector's score function) across the pool, in input order. score must be
// safe for concurrent calls.
func (e *Engine) MapFloat(conns []*flow.Connection, score func(*flow.Connection) float64) []float64 {
	out := make([]float64, len(conns))
	e.ParallelFor(len(conns), func(i int) { out[i] = score(conns[i]) })
	return out
}

// WindowErrorsAll computes per-window reconstruction errors for every
// connection, in input order.
func (e *Engine) WindowErrorsAll(det *core.Detector, conns []*flow.Connection) [][]float64 {
	out := make([][]float64, len(conns))
	e.ParallelFor(len(conns), func(i int) { out[i] = det.WindowErrors(conns[i]) })
	return out
}

// ScoreBackend scores every connection with an arbitrary detection backend
// across the pool, in input order — the backend-agnostic counterpart of
// AdversarialScores. The backend must be trained (its scoring path is
// required to be concurrency-safe by the Backend contract).
func (e *Engine) ScoreBackend(b backend.Backend, conns []*flow.Connection) []float64 {
	return e.MapFloat(conns, b.ScoreConn)
}

// WindowErrorsBackend computes each connection's per-window anomaly series
// with an arbitrary backend, in input order. One series plus the backend's
// Summarize is a full scoring pass without re-running inference.
func (e *Engine) WindowErrorsBackend(b backend.Backend, conns []*flow.Connection) [][]float64 {
	out := make([][]float64, len(conns))
	e.ParallelFor(len(conns), func(i int) { out[i] = b.WindowErrors(conns[i]) })
	return out
}

// batchGroup is how many connections one micro-batching group holds: the
// group's windows are materialized together, so the group bounds resident
// memory while staying large enough to fill many batches per barrier.
func (e *Engine) batchGroup() int {
	g := 8 * e.workers
	if g < 64 {
		g = 64
	}
	return g
}

// WindowErrorsBatched computes every connection's per-window anomaly
// series like WindowErrorsBackend, but — when the backend implements
// backend.BatchScorer and the engine's batch size is > 1 — amortized:
// window production (stage (b)) fans out per connection, the produced
// windows are pooled ACROSS connections into micro-batches of the
// engine's batch size, and each batch runs as one matrix-matrix inference
// pass on the pool. Connections are processed in bounded groups so a huge
// capture never holds every window resident at once.
//
// Results are slot-indexed and bit-identical to the unbatched serial path
// at any worker, shard, batch or lockstep size: batch boundaries only
// split the window list, lockstep only reorders *which connection* steps
// when (never a connection's own step order), and the BatchScorer /
// LockstepScorer contracts pin every split to the same bits. Backends
// without the capabilities fall back to WindowErrorsBackend; composite
// backends implementing backend.GroupScorer route whole groups through
// their internal stages when lockstep is enabled.
func (e *Engine) WindowErrorsBatched(b backend.Backend, conns []*flow.Connection) [][]float64 {
	if gs, ok := b.(backend.GroupScorer); ok && e.lockstep > 0 && e.batch > 1 {
		return e.windowErrorsGrouped(gs, conns)
	}
	bs, ok := b.(backend.BatchScorer)
	if !ok || e.batch <= 1 {
		return e.WindowErrorsBackend(b, conns)
	}
	out := make([][]float64, len(conns))
	group := e.batchGroup()
	for lo := 0; lo < len(conns); lo += group {
		hi := lo + group
		if hi > len(conns) {
			hi = len(conns)
		}
		e.windowErrorsGroup(bs, conns[lo:hi], out[lo:hi])
	}
	return out
}

// windowErrorsGroup scores one bounded group of connections through the
// micro-batched path.
func (e *Engine) windowErrorsGroup(bs backend.BatchScorer, conns []*flow.Connection, out [][]float64) {
	wins := make([][][]float64, len(conns))
	e.produceWindows(bs, conns, wins)
	e.scoreWindowSets(bs, wins, out, true)
}

// scoreWindowSets flattens produced window sets, runs the pooled
// micro-batch inference pass (fanned out across the pool when fanOut is
// set, serially on the calling goroutine otherwise), carves each
// connection's series from one flat error buffer, and hands pooled window
// buffers back to the backend.
func (e *Engine) scoreWindowSets(bs backend.BatchScorer, wins [][][]float64, out [][]float64, fanOut bool) {
	total := 0
	for _, w := range wins {
		total += len(w)
	}
	flat := make([][]float64, 0, total)
	for _, w := range wins {
		flat = append(flat, w...)
	}
	errsFlat := make([]float64, total)
	nb := (total + e.batch - 1) / e.batch
	score := func(k int) {
		blo := k * e.batch
		bhi := blo + e.batch
		if bhi > total {
			bhi = total
		}
		copy(errsFlat[blo:bhi], bs.ScoreWindows(flat[blo:bhi]))
	}
	if fanOut {
		e.parallelForWide(nb, score)
	} else {
		for k := 0; k < nb; k++ {
			score(k)
		}
	}

	at := 0
	for i, w := range wins {
		out[i] = errsFlat[at : at+len(w) : at+len(w)]
		at += len(w)
	}
	// All scores are in; hand pooled window buffers back to the backend.
	if rec, ok := bs.(backend.BatchRecycler); ok {
		for _, w := range wins {
			rec.RecycleWindows(w)
		}
	}
}

// ScoresBatched returns the scalar adversarial score per connection like
// ScoreBackend, but through the micro-batched window path; the Backend
// contract pins Summarize(WindowErrors(c)) == ScoreConn(c) bit for bit,
// so scores are identical to the serial path at any batch size.
func (e *Engine) ScoresBatched(b backend.Backend, conns []*flow.Connection) []float64 {
	_, isBatch := b.(backend.BatchScorer)
	_, isGroup := b.(backend.GroupScorer)
	if (!isBatch && !(isGroup && e.lockstep > 0)) || e.batch <= 1 {
		return e.ScoreBackend(b, conns)
	}
	errsAll := e.WindowErrorsBatched(b, conns)
	out := make([]float64, len(conns))
	for i, errs := range errsAll {
		out[i], _ = b.Summarize(errs)
	}
	return out
}

// RNNAccuracy evaluates stage (a) across the pool: per-connection class
// hit/total counts are computed in parallel and summed in input order.
func (e *Engine) RNNAccuracy(det *core.Detector, conns []*flow.Connection) (hits, totals [tcpstate.NumClasses]int) {
	perHits := make([][tcpstate.NumClasses]int, len(conns))
	perTotals := make([][tcpstate.NumClasses]int, len(conns))
	e.ParallelFor(len(conns), func(i int) {
		perHits[i], perTotals[i] = det.RNNAccuracyConn(conns[i])
	})
	for i := range perHits {
		for c := 0; c < tcpstate.NumClasses; c++ {
			hits[c] += perHits[i][c]
			totals[c] += perTotals[i][c]
		}
	}
	return hits, totals
}

// FNV-1a, inlined so per-packet shard hashing does not allocate a hasher.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

type endpointKey struct {
	ip   [4]byte
	port uint16
}

func (a endpointKey) less(b endpointKey) bool {
	for i := 0; i < 4; i++ {
		if a.ip[i] != b.ip[i] {
			return a.ip[i] < b.ip[i]
		}
	}
	return a.port < b.port
}

// shardOf hashes a packet's 4-tuple into [0, shards). The two endpoints are
// canonically ordered first so both directions of a connection — and
// therefore every packet flow.Assemble would group together — land in the
// same shard.
func shardOf(p *packet.Packet, shards int) int {
	a := endpointKey{ip: p.IP.SrcIP, port: p.TCP.SrcPort}
	b := endpointKey{ip: p.IP.DstIP, port: p.TCP.DstPort}
	if b.less(a) {
		a, b = b, a
	}
	var buf [12]byte
	copy(buf[0:4], a.ip[:])
	buf[4] = byte(a.port >> 8)
	buf[5] = byte(a.port)
	copy(buf[6:10], b.ip[:])
	buf[10] = byte(b.port >> 8)
	buf[11] = byte(b.port)
	h := uint64(fnvOffset64)
	for _, c := range buf {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return int(h % uint64(shards))
}

// Assemble groups a capture-ordered packet stream into connections like
// flow.Assemble, but sharded: packets are partitioned by connection-key
// hash, shards assemble concurrently, and the merged output is restored to
// exact serial order (connections ordered by their first packet's capture
// position). The result is element-wise identical to flow.Assemble(pkts)
// because assembly state never crosses 4-tuples and a 4-tuple never crosses
// shards.
func (e *Engine) Assemble(pkts []*packet.Packet) []*flow.Connection {
	shards := e.shards
	if shards <= 1 || len(pkts) < 2*shards {
		return flow.Assemble(pkts)
	}
	parts := make([][]*packet.Packet, shards)
	for _, p := range pkts {
		s := shardOf(p, shards)
		parts[s] = append(parts[s], p)
	}
	assembled := make([][]*flow.Connection, shards)
	e.parallelForWide(shards, func(i int) { assembled[i] = flow.Assemble(parts[i]) })

	// Merge back to capture order without indexing every packet: map only
	// each connection's first packet (#connections entries, not #packets),
	// then walk the stream once, emitting connections as their first packet
	// appears. The slice value keeps the merge deterministic even in the
	// pathological case of one packet pointer opening connections in
	// several shards.
	nConns := 0
	for _, cs := range assembled {
		nConns += len(cs)
	}
	byFirst := make(map[*packet.Packet][]*flow.Connection, nConns)
	for _, cs := range assembled {
		for _, c := range cs {
			byFirst[c.Packets[0]] = append(byFirst[c.Packets[0]], c)
		}
	}
	out := make([]*flow.Connection, 0, nConns)
	for _, p := range pkts {
		if cs, ok := byFirst[p]; ok {
			out = append(out, cs...)
			delete(byFirst, p)
		}
	}
	return out
}
