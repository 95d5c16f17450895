package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"clap"
	"clap/internal/flow"
	"clap/internal/trafficgen"
)

// workload is one traffic mix. The why notes are mirrored, word for word,
// in BENCHMARK.json; the self-test keeps the two in sync.
type workload struct {
	name string
	why  string
	// backend is the model spec the fixture trains ("clap" or a cascade
	// spec accepted by clap.NewBackendSpec).
	backend string
	// conns sizes a closed-loop capture; an open-loop capture is sized by
	// rate × --seconds instead.
	conns int
	// attackFrac is the share of connections that get one evasion
	// strategy, drawn uniformly from the whole corpus.
	attackFrac float64
	// rate > 0 makes the workload an open loop paced at this many
	// packets per second; 0 is a closed loop read as fast as the
	// server's queue accepts.
	rate float64
}

var workloads = []workload{
	{
		name:       "clap-replay",
		why:        "closed loop, CLAP model, 20% attacked: AE and GRU take most CPU, so scoring-kernel and batching changes show here",
		backend:    clap.BackendCLAP,
		conns:      3000,
		attackFrac: 0.20,
	},
	{
		name:       "cascade-benign",
		why:        "closed loop, baseline1+clap cascade, 5% attacked: screened connections skip the AE, so ingest, features and assembly show here",
		backend:    "cascade:baseline1+clap",
		conns:      10000,
		attackFrac: 0.05,
	},
	{
		name:       "clap-paced",
		why:        "open loop at a fixed packet rate with the 5 s idle flush: the only workload where verdict latency and bursty queueing matter",
		backend:    clap.BackendCLAP,
		attackFrac: 0.20,
		rate:       8000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The fixture model and the calibration corpus are the same for every
// workload seed: the seed varies only the capture, so the threshold and a
// cascade's escalation cut do not move between seeds. The cascade's
// screen gets more autoencoder epochs than CLAP; at one epoch its 5-unit
// bottleneck screens at random.
const (
	fixtureSeed   = 1
	fixtureConns  = 200
	fixtureEpochs = 1
	b1Epochs      = 12
	calibSeed     = 2
	calibConns    = 500
	calibFPR      = 0.01
)

// attackSeedOffset puts the attack draws on a random stream of their own.
const attackSeedOffset = 1_000_003

// fixture is a trained model on disk plus the benign calibration capture
// clap-serve's -calibrate flag would read.
type fixture struct {
	modelPath string
	calibPath string
	modelHash string
}

// trainFixture trains the tiny-epoch model for spec and writes it, with
// the benign calibration corpus, into dir. Training is not timed.
func trainFixture(dir, spec string) (*fixture, error) {
	b, err := clap.NewBackendSpec(spec)
	if err != nil {
		return nil, err
	}
	stages := []clap.Backend{b}
	if c, ok := b.(*clap.CascadeBackend); ok {
		s1, s2 := c.Stages()
		stages = []clap.Backend{s1, s2}
	}
	for _, s := range stages {
		cb, ok := s.(*clap.CLAPBackend)
		if !ok {
			return nil, fmt.Errorf("fixture: stage %s is not a CLAP-family backend", s.Tag())
		}
		cb.Cfg.Seed = fixtureSeed
		cb.Cfg.RNNEpochs, cb.Cfg.AEEpochs = fixtureEpochs, fixtureEpochs
		if cb.Tag() == clap.BackendBaseline1 {
			cb.Cfg.AEEpochs = b1Epochs
		}
	}
	if err := b.Train(clap.GenerateBenign(fixtureConns, fixtureSeed), func(string, ...any) {}); err != nil {
		return nil, fmt.Errorf("fixture: training %s: %w", spec, err)
	}
	var model bytes.Buffer
	if err := clap.SaveBackend(&model, b); err != nil {
		return nil, err
	}
	fx := &fixture{
		modelPath: filepath.Join(dir, "model.bin"),
		calibPath: filepath.Join(dir, "calib.pcap"),
		modelHash: fmt.Sprintf("%x", sha256.Sum256(model.Bytes()))[:16],
	}
	if err := os.WriteFile(fx.modelPath, model.Bytes(), 0o644); err != nil {
		return nil, err
	}
	calib := clap.GenerateBenign(calibConns, calibSeed)
	if err := clap.WritePCAPFile(fx.calibPath, calib, false); err != nil {
		return nil, err
	}
	return fx, nil
}

// capture is one workload's generated pcap plus what only the generator
// knows: where each record starts and which 4-tuples carry an attack.
type capture struct {
	pcap []byte
	// recEnd[i] is the byte offset just past record i.
	recEnd []int
	// attacked holds the canonical (direction-free) 4-tuples of every
	// connection that got an evasion strategy.
	attacked map[flow.Key]bool
	// generated holds every generated connection's canonical 4-tuple; a
	// connection outside it can only come from injected packets.
	generated map[flow.Key]bool
}

func (c *capture) packets() int { return len(c.recEnd) }

// canonical orders a key's endpoints so both directions of a 4-tuple map
// to one label.
func canonical(k flow.Key) flow.Key {
	a, b := k.Client, k.Server
	if bytes.Compare(a.IP[:], b.IP[:]) > 0 || (a.IP == b.IP && a.Port > b.Port) {
		a, b = b, a
	}
	return flow.Key{Client: a, Server: b}
}

// generate builds the workload's capture for seed: trafficgen benign
// traffic, one uniformly drawn strategy injected into attackFrac of the
// connections, encoded as a classic pcap. An open loop keeps the longest
// prefix of connections that fits in maxPackets (0: no limit).
func generate(w workload, seed int64, conns, maxPackets int) (*capture, error) {
	cfg := trafficgen.DefaultConfig(conns)
	cfg.Seed = seed
	all := trafficgen.Generate(cfg)
	strategies := clap.Attacks()
	rng := rand.New(rand.NewSource(seed + attackSeedOffset))
	attacked := make(map[flow.Key]bool)
	generated := make(map[flow.Key]bool, len(all))
	for _, c := range all {
		generated[canonical(c.Key)] = true
		if rng.Float64() >= w.attackFrac {
			continue
		}
		st := strategies[rng.Intn(len(strategies))]
		if st.Apply(c, rng) {
			c.AttackName = st.Name
			attacked[canonical(c.Key)] = true
		}
	}
	if maxPackets > 0 {
		n, total := 0, 0
		for n < len(all) && total+all[n].Len() <= maxPackets {
			total += all[n].Len()
			n++
		}
		all = all[:n]
	}
	var buf bytes.Buffer
	if err := clap.WritePCAP(&buf, all); err != nil {
		return nil, err
	}
	cp := &capture{pcap: buf.Bytes(), attacked: attacked, generated: generated}
	// Walk the record headers once so writers can cut the byte stream at
	// record boundaries. WritePCAP writes little-endian headers.
	for off := 24; off < len(cp.pcap); {
		if off+16 > len(cp.pcap) {
			return nil, fmt.Errorf("generate: truncated record header at %d", off)
		}
		off += 16 + int(binary.LittleEndian.Uint32(cp.pcap[off+8:off+12]))
		cp.recEnd = append(cp.recEnd, off)
	}
	return cp, nil
}
