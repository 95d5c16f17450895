package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"clap/internal/features"
	"clap/internal/nn"
	"clap/internal/tcpstate"
)

// The detector persists as a single gob stream: config, feature profile,
// then the two models framed as byte blobs. The blob framing matters: a
// gob decoder may read ahead on readers without io.ByteReader (e.g.
// *os.File), so the models cannot safely follow as separate gob streams on
// the same reader.

// Save writes the full detector to w.
func (d *Detector) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(d.Cfg); err != nil {
		return fmt.Errorf("core: saving config: %w", err)
	}
	if err := enc.Encode(d.Profile); err != nil {
		return fmt.Errorf("core: saving feature profile: %w", err)
	}
	var rnnBuf, aeBuf bytes.Buffer
	if err := nn.SaveGRU(&rnnBuf, d.RNN); err != nil {
		return fmt.Errorf("core: saving RNN: %w", err)
	}
	if err := nn.SaveAutoencoder(&aeBuf, d.AE); err != nil {
		return fmt.Errorf("core: saving autoencoder: %w", err)
	}
	if err := enc.Encode(rnnBuf.Bytes()); err != nil {
		return fmt.Errorf("core: framing RNN: %w", err)
	}
	if err := enc.Encode(aeBuf.Bytes()); err != nil {
		return fmt.Errorf("core: framing autoencoder: %w", err)
	}
	return nil
}

// Load reads a detector written by Save.
func Load(r io.Reader) (*Detector, error) {
	d := &Detector{}
	dec := gob.NewDecoder(r)
	if err := dec.Decode(&d.Cfg); err != nil {
		return nil, fmt.Errorf("core: loading config: %w", err)
	}
	var prof features.Profile
	if err := dec.Decode(&prof); err != nil {
		return nil, fmt.Errorf("core: loading feature profile: %w", err)
	}
	d.Profile = &prof
	var rnnBlob, aeBlob []byte
	if err := dec.Decode(&rnnBlob); err != nil {
		return nil, fmt.Errorf("core: reading RNN frame: %w", err)
	}
	if err := dec.Decode(&aeBlob); err != nil {
		return nil, fmt.Errorf("core: reading autoencoder frame: %w", err)
	}
	var err error
	if d.RNN, err = nn.LoadGRU(bytes.NewReader(rnnBlob)); err != nil {
		return nil, err
	}
	if d.AE, err = nn.LoadAutoencoder(bytes.NewReader(aeBlob)); err != nil {
		return nil, err
	}
	if err := d.checkParts(); err != nil {
		return nil, err
	}
	return d, nil
}

// checkParts cross-checks the separately decoded config, GRU and
// autoencoder. Each decodes cleanly on its own, so a model stitched from
// mismatched parts would otherwise load and then panic at its first
// window: stacked profiles are Cfg.AESizes()[0] wide and the gate blocks
// Cfg.RNNHidden wide.
func (d *Detector) checkParts() error {
	m := d.RNN
	if m.In != features.NumRNN || m.Hidden != d.Cfg.RNNHidden || m.Classes != tcpstate.NumClasses {
		return fmt.Errorf("core: model GRU is in=%d hidden=%d classes=%d, config wants in=%d hidden=%d classes=%d",
			m.In, m.Hidden, m.Classes, features.NumRNN, d.Cfg.RNNHidden, tcpstate.NumClasses)
	}
	if want := d.Cfg.AESizes(); !slices.Equal(d.AE.Sizes, want) {
		return fmt.Errorf("core: model autoencoder has sizes %v, config wants %v", d.AE.Sizes, want)
	}
	return nil
}

// SaveFile persists the detector to path, creating parent directories.
func (d *Detector) SaveFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a detector from path.
func LoadFile(path string) (*Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
