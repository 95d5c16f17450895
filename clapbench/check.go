package main

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"clap"
	"clap/internal/flow"
	"clap/internal/packet"
	"clap/internal/pcapio"
)

// connID identifies one assembled connection independently of which
// assembler produced it: its oriented 4-tuple, first-packet capture time
// and packet count.
type connID struct {
	key   flow.Key
	first int64
	n     int
}

func idOf(c *clap.Connection) connID {
	return connID{key: c.Key, first: c.Packets[0].Timestamp.UnixNano(), n: c.Len()}
}

// reference is the offline verdict set every served verdict is checked
// against: clap.ReadPCAP over the capture bytes, scored by the same
// backend under the same calibration.
type reference struct {
	index     map[connID]int
	score     []float64
	lastPkt   []int // capture index of each connection's last packet
	attacked  []bool
	packets   []int
	threshold float64
	// decoded counts the capture's records that decode to TCP/IPv4
	// packets; some injected attack packets do not, and every ingest path
	// skips those.
	decoded int
}

func (r *reference) conns() int { return len(r.score) }

// buildReference re-scores the capture offline. The backend is loaded
// from the fixture and calibrated exactly as Server.Start does, so the
// threshold and (for the cascade) the escalation cut match the server's.
func buildReference(fx *fixture, cp *capture, workers int) (*reference, error) {
	b, err := clap.LoadBackendFile(fx.modelPath)
	if err != nil {
		return nil, err
	}
	pipe, err := clap.NewPipeline(clap.WithBackend(b), clap.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	cal, err := pipe.CalibrateBackend(b, calibFPR, clap.PCAPFile(fx.calibPath))
	if err != nil {
		return nil, err
	}
	conns, skipped, err := clap.ReadPCAP(bytes.NewReader(cp.pcap))
	if err != nil {
		return nil, err
	}
	last, decoded, err := lastPacketIndex(cp, conns)
	if err != nil {
		return nil, err
	}
	if decoded+skipped != cp.packets() {
		return nil, fmt.Errorf("reference: %d decoded + %d skipped records, capture holds %d", decoded, skipped, cp.packets())
	}
	ref := &reference{
		index:     make(map[connID]int, len(conns)),
		score:     pipe.Engine().ScoresBatched(b, conns),
		lastPkt:   last,
		attacked:  make([]bool, len(conns)),
		packets:   make([]int, len(conns)),
		threshold: cal.Threshold,
		decoded:   decoded,
	}
	for i, c := range conns {
		id := idOf(c)
		if _, dup := ref.index[id]; dup {
			return nil, fmt.Errorf("reference: two connections share identity %v", id)
		}
		ref.index[id] = i
		ck := canonical(c.Key)
		ref.attacked[i] = cp.attacked[ck] || !cp.generated[ck]
		ref.packets[i] = c.Len()
	}
	return ref, nil
}

// lastPacketIndex maps each ReadPCAP connection to the capture index of
// its last packet, by repeating ReadPCAP's decode-and-assemble over the
// records with their positions kept, and checking it yields the same
// connections. It also returns how many records decoded.
func lastPacketIndex(cp *capture, conns []*clap.Connection) ([]int, int, error) {
	rd, err := pcapio.NewReader(bytes.NewReader(cp.pcap))
	if err != nil {
		return nil, 0, err
	}
	pos := make(map[*packet.Packet]int, cp.packets())
	pkts := make([]*packet.Packet, 0, cp.packets())
	for i := 0; ; i++ {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		if len(rec.Data) == 0 {
			continue
		}
		p, err := packet.Decode(rec.Data)
		if err != nil {
			continue
		}
		p.Timestamp = rec.Timestamp
		pos[p] = i
		pkts = append(pkts, p)
	}
	mine := flow.Assemble(pkts)
	if len(mine) != len(conns) {
		return nil, 0, fmt.Errorf("reference: %d connections vs ReadPCAP's %d", len(mine), len(conns))
	}
	last := make([]int, len(mine))
	for i, c := range mine {
		if idOf(c) != idOf(conns[i]) {
			return nil, 0, fmt.Errorf("reference: connection %d differs from ReadPCAP's", i)
		}
		last[i] = pos[c.Packets[c.Len()-1]]
	}
	return last, len(pkts), nil
}

// verdict is what the benchmark keeps of one served result: no pointer
// into the connection, so recording it does not pin the capture in the
// heap the run is measuring.
type verdict struct {
	ref     int // reference index, -1 when the connection is unknown
	score   float64
	flagged bool
	at      int64 // ns since the timed phase started
}

// checkResult tallies one run's verdicts against the reference.
type checkResult struct {
	mismatches []string
	missing    int
}

func (c *checkResult) fail(format string, args ...any) {
	if len(c.mismatches) < 5 {
		c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
	} else if len(c.mismatches) == 5 {
		c.mismatches = append(c.mismatches, "…")
	}
}

// check demands exactly one verdict per reference connection, each
// bit-identical in score to the offline re-scoring and flagged exactly
// when the score reaches the calibrated threshold.
func check(ref *reference, vs []verdict, threshold float64) *checkResult {
	cr := &checkResult{}
	seen := make([]bool, ref.conns())
	if math.Float64bits(threshold) != math.Float64bits(ref.threshold) {
		cr.fail("served threshold %v, offline calibration %v", threshold, ref.threshold)
	}
	for _, v := range vs {
		if v.ref < 0 {
			cr.fail("verdict for a connection the capture does not hold")
			continue
		}
		if seen[v.ref] {
			cr.fail("connection %d got a second verdict", v.ref)
			continue
		}
		seen[v.ref] = true
		if math.Float64bits(v.score) != math.Float64bits(ref.score[v.ref]) {
			cr.fail("connection %d scored %v served, %v offline", v.ref, v.score, ref.score[v.ref])
		}
		if v.flagged != (v.score >= threshold) {
			cr.fail("connection %d flagged=%v at score %v, threshold %v", v.ref, v.flagged, v.score, threshold)
		}
	}
	for _, s := range seen {
		if !s {
			cr.missing++
		}
	}
	return cr
}

// detection computes AUC and EER of verdict scores against the
// generator's attack labels.
func detection(ref *reference, vs []verdict) (auc, eer float64) {
	var benign, adv []float64
	for _, v := range vs {
		if v.ref < 0 {
			continue
		}
		if ref.attacked[v.ref] {
			adv = append(adv, v.score)
		} else {
			benign = append(benign, v.score)
		}
	}
	return clap.AUC(benign, adv), clap.EER(benign, adv)
}
