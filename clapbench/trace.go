package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"clap"
	"clap/internal/core"
	"clap/internal/engine"
	"clap/internal/features"
	"clap/internal/flow"
	"clap/internal/packet"
	"clap/internal/pcapio"
)

// The traced run replays the capture through each layer's public entry
// point in turn, layer by layer: every record through pcapio, then every
// record through packet.Decode, then every packet through the assembler,
// then each group of emitted connections through the model layers. A
// layer's loop is timed from outside as one span, so the clock costs two
// reads per span rather than per call, and a span's allocations are the
// runtime's malloc count across it. Spans never overlap, so their sum
// against the replay's wall time says how much of the run they explain.

// replayGroupPackets bounds the packets of the emitted connections that go
// through the model layers together. It only sets how often the replay
// reads the malloc count, and how many windows it holds at once; every
// model call still sees one connection, as in the stream.
const replayGroupPackets = 16 << 10

// liveMaxPackets is the live sources' default per-connection budget.
const liveMaxPackets = 512

// span accumulates one layer's time and allocations.
type span struct {
	ns     int64
	allocs uint64
}

// stageSpans are one model stage's layers. Stage 0 is a cascade's screen,
// stage 1 the model whose verdicts a connection ends with; a single-model
// backend uses stage 1 only.
type stageSpans struct {
	vectorize, gates, windows, ae span
	windowsN                      int
}

type replayStats struct {
	read, decode, feed, summarize span
	stage                         [2]stageSpans
	openConnsMax, openPktsMax     int
	packets, conns                int
	wall                          time.Duration
	meterTime                     time.Duration // the meter's own malloc-count reads
	mismatches                    int
}

func (st *replayStats) covered() int64 {
	n := st.read.ns + st.decode.ns + st.feed.ns + st.summarize.ns
	for _, s := range st.stage {
		n += s.vectorize.ns + s.gates.ns + s.windows.ns + s.ae.ns
	}
	return n
}

// meter runs layer loops, timing them only when on. The malloc count
// comes from runtime.ReadMemStats, which is exact but stops the world, so
// spans are kept few: one per layer per group. The reads are timed too:
// a stop can wait on a thread the hypervisor has parked, and that wait is
// the meter's, not a layer's.
type meter struct {
	on   bool
	ms   runtime.MemStats
	self time.Duration
}

func (m *meter) run(sp *span, f func()) {
	if !m.on {
		f()
		return
	}
	r0 := time.Now()
	runtime.ReadMemStats(&m.ms)
	a0 := m.ms.Mallocs
	t0 := time.Now()
	f()
	t1 := time.Now()
	sp.ns += t1.Sub(t0).Nanoseconds()
	runtime.ReadMemStats(&m.ms)
	sp.allocs += m.ms.Mallocs - a0
	m.self += t0.Sub(r0) + time.Since(t1)
}

// replay pushes the capture through every layer once. With timed off it
// does the same work without clocks or malloc counts, which is what the
// tracing overhead is measured against. b must be calibrated (a cascade's
// escalation threshold in force); every replayed score is checked against
// the reference.
func replay(w workload, cp *capture, ref *reference, b clap.Backend, timed bool) (*replayStats, error) {
	stages, esc, err := modelStages(b)
	if err != nil {
		return nil, err
	}
	m := &meter{on: timed}
	st := &replayStats{}
	t0 := time.Now()

	rd, err := pcapio.NewReader(bytes.NewReader(cp.pcap))
	if err != nil {
		return nil, err
	}
	recs := make([]pcapio.Record, 0, cp.packets())
	m.run(&st.read, func() {
		for {
			rec, rerr := rd.Next()
			if rerr != nil {
				if rerr != io.EOF {
					err = rerr
				}
				return
			}
			recs = append(recs, rec)
		}
	})
	if err != nil {
		return nil, err
	}

	pkts := make([]*packet.Packet, 0, len(recs))
	m.run(&st.decode, func() {
		for _, rec := range recs {
			if len(rec.Data) == 0 {
				continue
			}
			p, derr := packet.Decode(rec.Data)
			if derr != nil {
				continue
			}
			p.Timestamp = rec.Timestamp
			pkts = append(pkts, p)
		}
	})
	recs = nil
	st.packets = len(pkts)
	if st.packets != ref.decoded {
		return nil, fmt.Errorf("replay: %d records decoded, the reference decoded %d", st.packets, ref.decoded)
	}

	var emitted []*flow.Connection
	asm := flow.NewAssembler(func(c *flow.Connection) { emitted = append(emitted, c) })
	asm.MaxPackets = liveMaxPackets
	feedAll(w, asm, pkts, m, st)
	pkts = nil
	st.conns = len(emitted)

	for lo := 0; lo < len(emitted); {
		hi, n := lo, 0
		for hi < len(emitted) && (hi == lo || n+emitted[hi].Len() <= replayGroupPackets) {
			n += emitted[hi].Len()
			hi++
		}
		group := emitted[lo:hi]
		lo = hi
		var errs [][]float64
		if len(stages) == 2 {
			errs = cascadeGroup(stages, esc, group, m, st)
		} else {
			errs = scoreStage(stages[0], group, m, &st.stage[1])
		}
		var scores []float64
		m.run(&st.summarize, func() {
			scores = make([]float64, len(errs))
			for i, e := range errs {
				scores[i], _ = b.Summarize(e)
			}
		})
		for i, c := range group {
			j, ok := ref.index[idOf(c)]
			if !ok || math.Float64bits(scores[i]) != math.Float64bits(ref.score[j]) {
				st.mismatches++
			}
		}
		for i := range group {
			group[i] = nil // let the replay drop scored connections
		}
	}
	st.wall = time.Since(t0)
	st.meterTime = m.self
	return st, nil
}

// feedAll drives the assembler over the decoded packets in chunks,
// sampling its open state between chunks. An open loop also gets the
// server's idle flush: the server ticks every idleFlush of wall time and
// emits connections silent for idleFlush, so at the tick due at schedule
// time T it emits the connections whose last packet was due before
// T − idleFlush. The replay runs faster than the schedule, so it calls
// FlushIdle with the wall time elapsed since it fed the first packet due
// at or after T − idleFlush.
func feedAll(w workload, asm *flow.Assembler, pkts []*packet.Packet, m *meter, st *replayStats) {
	// Pending is O(1) and sampled after every chunk; PendingPackets walks
	// every open connection, so it is sampled every 16 chunks and right
	// before each flush, where the open state peaks.
	const chunk = 256
	sample := func(deep bool) {
		if !m.on {
			return
		}
		st.openConnsMax = max(st.openConnsMax, asm.Pending())
		if deep {
			st.openPktsMax = max(st.openPktsMax, asm.PendingPackets())
		}
	}
	per := 0
	if w.rate > 0 {
		per = int(math.Ceil(w.rate * idleFlush.Seconds()))
	}
	var tickStart time.Time
	for lo := 0; lo < len(pkts); {
		hi := min(lo+chunk-lo%chunk, len(pkts))
		if per > 0 {
			hi = min(hi, (lo/per+1)*per)
			if lo%per == 0 {
				if lo > 0 {
					sample(true)
					since := tickStart
					m.run(&st.feed, func() { asm.FlushIdle(time.Since(since)) })
				}
				tickStart = time.Now()
			}
		}
		m.run(&st.feed, func() {
			for _, p := range pkts[lo:hi] {
				asm.Feed(p)
			}
		})
		sample(hi%(16*chunk) == 0)
		lo = hi
	}
	sample(true)
	m.run(&st.feed, asm.Flush)
}

// modelStages returns the detectors a backend scores with, screen first,
// and a cascade's escalation threshold.
func modelStages(b clap.Backend) ([]*core.Detector, float64, error) {
	det := func(s clap.Backend) (*core.Detector, error) {
		cb, ok := s.(*clap.CLAPBackend)
		if !ok || cb.Detector() == nil {
			return nil, fmt.Errorf("replay: backend %s has no CLAP-family detector", s.Tag())
		}
		return cb.Detector(), nil
	}
	if c, ok := b.(*clap.CascadeBackend); ok {
		th, set := c.Escalation()
		if !set {
			return nil, 0, fmt.Errorf("replay: cascade escalation is not calibrated")
		}
		s1, s2 := c.Stages()
		d1, err := det(s1)
		if err != nil {
			return nil, 0, err
		}
		d2, err := det(s2)
		if err != nil {
			return nil, 0, err
		}
		return []*core.Detector{d1, d2}, th, nil
	}
	d, err := det(b)
	return []*core.Detector{d}, 0, err
}

// cascadeGroup routes a group the way Cascade.WindowErrorsGroup does: the
// screen scores every connection; those at or above the escalation
// threshold are re-scored by the verdict stage, the rest keep their
// screen series shifted down by the threshold.
func cascadeGroup(stages []*core.Detector, esc float64, group []*flow.Connection, m *meter, st *replayStats) [][]float64 {
	out := scoreStage(stages[0], group, m, &st.stage[0])
	var escIdx []int
	m.run(&st.summarize, func() {
		for i, e := range out {
			if stages[0].ScoreFromErrors(e).Adversarial < esc {
				for j := range e {
					e[j] -= esc
				}
				continue
			}
			escIdx = append(escIdx, i)
		}
	})
	if len(escIdx) == 0 {
		return out
	}
	sub := make([]*flow.Connection, len(escIdx))
	for j, i := range escIdx {
		sub[j] = group[i]
	}
	for j, e := range scoreStage(stages[1], sub, m, &st.stage[1]) {
		out[escIdx[j]] = e
	}
	return out
}

// scoreStage runs one detector's layers over a group: feature
// vectorization and GRU gates as separate calls (the children), then the
// inclusive window production, then the autoencoder over each
// connection's windows in micro-batches of engine.DefaultBatch — the
// batching the serving stream applies with lockstep off.
func scoreStage(d *core.Detector, group []*flow.Connection, m *meter, sp *stageSpans) [][]float64 {
	vecs := make([][][]float64, len(group))
	m.run(&sp.vectorize, func() {
		for i, c := range group {
			vecs[i] = d.Profile.Vectorize(c)
		}
	})
	if d.Cfg.UseUpdateGates || d.Cfg.UseResetGates {
		m.run(&sp.gates, func() {
			for _, v := range vecs {
				if len(v) == 0 {
					continue
				}
				_, _, release := d.RNN.ForwardGatesBatchPooled(features.RNNInputs(v))
				release()
			}
		})
	}
	wins := make([][][]float64, len(group))
	total := 0
	m.run(&sp.windows, func() {
		for i, c := range group {
			wins[i] = d.StackedProfilesBatched(c)
			total += len(wins[i])
		}
	})
	sp.windowsN += total
	out := make([][]float64, len(group))
	m.run(&sp.ae, func() {
		for i, w := range wins {
			errs := make([]float64, 0, len(w))
			for lo := 0; lo < len(w); lo += engine.DefaultBatch {
				errs = append(errs, d.AE.ErrorsBatch(w[lo:min(lo+engine.DefaultBatch, len(w))])...)
			}
			out[i] = errs
		}
	})
	m.run(&sp.windows, func() {
		for _, w := range wins {
			d.RecycleStacked(w)
		}
	})
	return out
}
