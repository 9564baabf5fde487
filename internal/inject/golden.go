package inject

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"repro/internal/ckptio"
)

// Golden images of the microarchitectural warm-up. A golden image captures
// the pipeline at the warm-up boundary (pipeline.WriteGoldenImage's frame
// layout), so repeat runs, sharded workers and every campaign that shares the
// warm-up skip the warm-up simulation. Loading an image is provably inert:
// the restored state is bit-identical to the warmed-up one, so campaign
// results are byte-identical either way (the equivalence tests run all seven
// benchmarks through both paths). VM campaigns keep no image: their warm-up
// is cheaper than loading one.

// goldenKey identifies the warm-up a golden image captures: exactly the
// inputs that determine the warmed state, nothing more. Its fingerprint names
// the image file, so one image serves every campaign whose warm-up matches
// (different Points, trial counts, bit sets, hardening or shard assignments
// included), and the image carries the key itself so a load can check it.
func (c *UArchConfig) goldenKey() string {
	return fmt.Sprintf("uarch|bench=%s|seed=%d|scale=%g|warmup=%d|pipe=%+v",
		c.Bench, c.Seed, c.Scale, c.WarmupCycles, c.pipelineConfig())
}

// goldenImage is the path of the configuration's golden image under
// GoldenImageDir, or "" when the campaign keeps none.
func (c *UArchConfig) goldenImage() string {
	if c.GoldenImageDir == "" {
		return ""
	}
	name := fmt.Sprintf("uarch-%s-%s.golden", c.Bench, fingerprint(c.goldenKey()))
	return filepath.Join(c.GoldenImageDir, name)
}

// invalidGoldenImage reports whether a load failure means the file is not a
// structurally valid ckptio container — a torn copy, bit rot, or a file that
// was never an image. Such a file is treated exactly like an absent one: the
// campaign re-runs the warm-up and atomically rewrites the image (ckptio's
// temp+fsync+rename makes the replacement safe even against concurrent
// shards). Crucially, ckptio surfaces these errors while decoding, before a
// single word of simulator state is touched, so self-healing never runs a
// campaign from a half-restored state. A mismatch error
// (pipeline.ErrGoldenMismatch) is NOT recoverable: the file is a healthy
// image of some other warm-up, and silently overwriting it would destroy
// that warm-up.
func invalidGoldenImage(err error) bool {
	return errors.Is(err, ckptio.ErrBadMagic) ||
		errors.Is(err, ckptio.ErrTruncated) ||
		errors.Is(err, ckptio.ErrCorrupt)
}

// warmUp brings the master to the warm-up boundary: from the golden image when
// the file holds a valid one, otherwise by simulating there and then saving
// the image. A structurally invalid image is treated as absent and rewritten;
// a healthy image of another warm-up, or any other read error, is returned
// (see invalidGoldenImage).
func (m *uarchModel) warmUp() error {
	x, path := &m.cfg.Exec, m.cfg.goldenImage()
	key, workers := []byte(m.cfg.goldenKey()), max(x.Workers, 1)
	if path != "" {
		switch err := m.master.LoadGoldenImage(path, key, workers); {
		case err == nil:
			x.Obs.Counter("campaign_uarch_golden_image_loaded_total").Inc()
			return nil
		case invalidGoldenImage(err):
			x.Obs.Counter("campaign_uarch_golden_image_invalid_total").Inc()
		case !errors.Is(err, fs.ErrNotExist):
			return fmt.Errorf("inject: golden image %s: %w", path, err)
		}
	}
	m.master.RunCycles(m.cfg.WarmupCycles)
	if path == "" {
		return nil
	}
	st, err := m.master.WriteGoldenImage(path, key, workers)
	if err != nil {
		return fmt.Errorf("inject: writing golden image %s: %w", path, err)
	}
	x.Obs.Counter("campaign_uarch_golden_image_saved_total").Inc()
	x.Obs.Counter("campaign_uarch_golden_image_frames_total").Add(int64(st.Frames))
	x.Obs.Counter("campaign_uarch_golden_image_plain_bytes_total").Add(st.PlainBytes)
	x.Obs.Counter("campaign_uarch_golden_image_stored_bytes_total").Add(st.StoredBytes)
	return nil
}
