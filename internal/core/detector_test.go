package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"clap/internal/attacks"
	"clap/internal/features"
	"clap/internal/flow"
	"clap/internal/metrics"
	"clap/internal/trafficgen"
)

func benignSet(n int, seed int64) []*flow.Connection {
	cfg := trafficgen.DefaultConfig(n)
	cfg.Seed = seed
	return trafficgen.Generate(cfg)
}

// trainTiny trains one shared detector for the package tests.
var tinyDet *Detector

func testDetector(t *testing.T) *Detector {
	t.Helper()
	if tinyDet != nil {
		return tinyDet
	}
	d, err := Train(benignSet(60, 1), TinyConfig(), nil)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	tinyDet = d
	return d
}

func TestConfigShapesMatchTable6(t *testing.T) {
	cfg := DefaultConfig()
	if w := cfg.ProfileWidth(); w != 115 {
		t.Errorf("profile width = %d, want 115 (51 features + 2×32 gates)", w)
	}
	sizes := cfg.AESizes()
	if sizes[0] != 345 || sizes[len(sizes)-1] != 345 {
		t.Errorf("AE input/output = %d/%d, want 345 (Table 6)", sizes[0], sizes[len(sizes)-1])
	}
	if len(sizes) != 7 {
		t.Errorf("AE has %d layers in the chain, want 7 (Table 6)", len(sizes))
	}
	min := sizes[0]
	for _, s := range sizes {
		if s < min {
			min = s
		}
	}
	if min != 40 {
		t.Errorf("bottleneck = %d, want 40 (Table 6)", min)
	}

	b1 := Baseline1Config()
	if w := b1.ProfileWidth(); w != features.NumPacket {
		t.Errorf("Baseline#1 profile width = %d, want %d", w, features.NumPacket)
	}
	b1s := b1.AESizes()
	if b1s[0] != 51 || len(b1s) != 3 || b1s[1] != 5 {
		t.Errorf("Baseline#1 AE chain = %v, want [51 5 51] (Table 6)", b1s)
	}
}

func TestTrainRejectsEmptyInput(t *testing.T) {
	if _, err := Train(nil, TinyConfig(), nil); err == nil {
		t.Fatal("Train on empty set should fail")
	}
}

func TestProfileAndWindowShapes(t *testing.T) {
	d := testDetector(t)
	conns := benignSet(5, 99)
	for _, c := range conns {
		profs := d.ContextProfiles(c)
		if len(profs) != c.Len() {
			t.Fatalf("%d profiles for %d packets", len(profs), c.Len())
		}
		for _, p := range profs {
			if len(p) != d.Cfg.ProfileWidth() {
				t.Fatalf("profile width %d, want %d", len(p), d.Cfg.ProfileWidth())
			}
		}
		wins := d.StackedProfiles(c)
		wantWins := c.Len() - d.Cfg.StackLength + 1
		if wantWins < 1 {
			wantWins = 1
		}
		if len(wins) != wantWins {
			t.Fatalf("%d windows for %d packets, want %d", len(wins), c.Len(), wantWins)
		}
		errs := d.WindowErrors(c)
		if len(errs) != len(wins) {
			t.Fatalf("%d errors for %d windows", len(errs), len(wins))
		}
		for _, e := range errs {
			if math.IsNaN(e) || e < 0 {
				t.Fatalf("bad reconstruction error %g", e)
			}
		}
	}
}

func TestShortConnectionPadding(t *testing.T) {
	d := testDetector(t)
	conns := benignSet(40, 7)
	for _, c := range conns {
		if c.Len() >= d.Cfg.StackLength {
			continue
		}
		wins := d.StackedProfiles(c)
		if len(wins) != 1 {
			t.Fatalf("short connection should yield one padded window, got %d", len(wins))
		}
		if len(wins[0]) != d.Cfg.ProfileWidth()*d.Cfg.StackLength {
			t.Fatal("padded window has wrong width")
		}
		s := d.Score(c)
		if s.PeakWindow != 0 {
			t.Fatalf("padded window peak = %d", s.PeakWindow)
		}
		return
	}
	t.Skip("no short connections in sample")
}

func TestScoreEmptyConnection(t *testing.T) {
	d := testDetector(t)
	s := d.Score(&flow.Connection{})
	if s.PeakWindow != -1 || s.Adversarial != 0 {
		t.Errorf("empty connection score = %+v", s)
	}
	if d.Localize(&flow.Connection{}, 3) != nil {
		t.Error("Localize on empty connection should be nil")
	}
}

// TestDetectsMotivatingExample trains a tiny CLAP and checks the paper's
// §1 example end to end: Bad-Checksum-RST connections must score clearly
// above benign traffic.
func TestDetectsMotivatingExample(t *testing.T) {
	d := testDetector(t)
	testBenign := benignSet(40, 555)
	strategy, ok := attacks.ByName("GFW: Injected RST Bad TCP-Checksum/MD5-Option")
	if !ok {
		t.Fatal("strategy missing")
	}
	rng := rand.New(rand.NewSource(3))
	var benignScores, advScores []float64
	for _, c := range testBenign {
		benignScores = append(benignScores, d.Score(c).Adversarial)
		cc := c.Clone()
		if strategy.Apply(cc, rng) {
			advScores = append(advScores, d.Score(cc).Adversarial)
		}
	}
	if len(advScores) < 10 {
		t.Fatalf("attack applied to only %d connections", len(advScores))
	}
	auc := metrics.AUC(benignScores, advScores)
	if auc < 0.90 {
		t.Errorf("AUC for the motivating example = %.3f, want >= 0.90 even in tiny config", auc)
	}
}

func TestLocalizationFindsInjectedPacket(t *testing.T) {
	d := testDetector(t)
	strategy, _ := attacks.ByName("GFW: Injected RST Bad TCP-Checksum/MD5-Option")
	rng := rand.New(rand.NewSource(5))
	hits, total := 0, 0
	for _, c := range benignSet(40, 777) {
		cc := c.Clone()
		if !strategy.Apply(cc, rng) {
			continue
		}
		total++
		if d.LocalizationHit(cc, 5) {
			hits++
		}
	}
	if total < 10 {
		t.Fatalf("only %d applications", total)
	}
	if rate := float64(hits) / float64(total); rate < 0.7 {
		t.Errorf("Top-5 localization hit rate = %.2f, want >= 0.7 in tiny config", rate)
	}
}

func TestLocalizationHitRequiresAdversarial(t *testing.T) {
	d := testDetector(t)
	c := benignSet(1, 31)[0]
	if d.LocalizationHit(c, 5) {
		t.Error("benign connection cannot produce a localization hit")
	}
}

func TestRNNAccuracyReasonable(t *testing.T) {
	d := testDetector(t)
	hits, totals := d.RNNAccuracy(benignSet(40, 888))
	var h, n int
	for c := 0; c < len(totals); c++ {
		h += hits[c]
		n += totals[c]
	}
	if n == 0 {
		t.Fatal("no labeled packets")
	}
	if acc := float64(h) / float64(n); acc < 0.85 {
		t.Errorf("overall RNN accuracy = %.3f, want >= 0.85 even in tiny config", acc)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := testDetector(t)
	c := benignSet(1, 123)[0]
	want := d.Score(c)

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	got := d2.Score(c)
	if math.Abs(got.Adversarial-want.Adversarial) > 1e-12 || got.PeakWindow != want.PeakWindow {
		t.Errorf("score after round trip = %+v, want %+v", got, want)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("nonsense"))); err == nil {
		t.Error("Load should reject garbage")
	}
}

// TestLoadRejectsMismatchedParts stitches a model whose config disagrees
// with its GRU or autoencoder. Each part decodes cleanly on its own; the
// mismatch used to surface only as a width panic at the first window.
func TestLoadRejectsMismatchedParts(t *testing.T) {
	d := testDetector(t)
	for name, tc := range map[string]struct {
		edit func(*Config)
		want string
	}{
		"AE sizes":   {func(c *Config) { c.AEHidden = []int{100, 40} }, "autoencoder"},
		"stacking":   {func(c *Config) { c.StackLength = 2 }, "autoencoder"},
		"GRU hidden": {func(c *Config) { c.RNNHidden = 16 }, "GRU"},
	} {
		cfg := d.Cfg
		cfg.AEHidden = append([]int(nil), d.Cfg.AEHidden...)
		tc.edit(&cfg)
		stitched := &Detector{Cfg: cfg, Profile: d.Profile, RNN: d.RNN, AE: d.AE}
		var buf bytes.Buffer
		if err := stitched.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		_, err := Load(&buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Load returned %v, want an error naming the %s", name, err, tc.want)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	d := testDetector(t)
	path := t.TempDir() + "/model/clap.gob"
	if err := d.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("LoadFile should fail on a missing file")
	}
}

func TestBaseline1HasNoGateFeatures(t *testing.T) {
	d, err := Train(benignSet(30, 2), func() Config {
		c := Baseline1Config()
		c.RNNEpochs, c.AEEpochs = 2, 2
		return c
	}(), nil)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	c := benignSet(1, 44)[0]
	profs := d.ContextProfiles(c)
	if len(profs[0]) != features.NumPacket {
		t.Errorf("Baseline#1 profile width = %d, want %d", len(profs[0]), features.NumPacket)
	}
	wins := d.StackedProfiles(c)
	if len(wins) != c.Len() {
		t.Errorf("Baseline#1 should have one window per packet, got %d for %d", len(wins), c.Len())
	}
}

func TestScoreWindowAveraging(t *testing.T) {
	d := testDetector(t)
	s := d.scoreFromErrors([]float64{0.1, 0.1, 5.0, 0.1, 0.1, 0.1, 0.1})
	if s.PeakWindow != 2 {
		t.Fatalf("peak = %d, want 2", s.PeakWindow)
	}
	want := (0.1 + 0.1 + 5.0 + 0.1 + 0.1) / 5
	if math.Abs(s.Adversarial-want) > 1e-12 {
		t.Errorf("adversarial score = %g, want %g (mean over the 5-window)", s.Adversarial, want)
	}
	// Peak at the edge: window clips.
	s = d.scoreFromErrors([]float64{5.0, 0.1, 0.1})
	want = (5.0 + 0.1 + 0.1) / 3
	if math.Abs(s.Adversarial-want) > 1e-12 {
		t.Errorf("edge adversarial score = %g, want %g", s.Adversarial, want)
	}
}

func TestDetectorString(t *testing.T) {
	d := testDetector(t)
	if d.String() == "" {
		t.Error("String should describe the detector")
	}
}
