package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/ckptio"
	"repro/internal/predictor"
)

// This file serialises a warmed pipeline — every injectable state word plus
// the simulator bookkeeping, predictors, caches and the memory image — into
// a ckptio golden image, so campaign workers can load a warm-up result
// instead of re-simulating it. The frame layout:
//
//	frame 0            meta (raw): one caller-supplied identification buffer
//	frame 1            bookkeeping (raw): shape guard + cycle/status/stats +
//	                   exec-window scheduling metadata
//	frame 2            straggler scalar state words (flate)
//	frames 3..3+E-1    the StateSpace's packed backing, one extent per frame
//	                   (flate) — E = number of equal-mask extents
//	frame 3+E          predictors (flate): dir | btb | ras | jrs | memdep
//	frame 4+E          caches (flate): l1i | l1d | l2 | itlb | dtlb
//	frames 5+E..       the memory page image in memChunk-byte slices (flate)
//
// Every frame is independent, so ckptio's worker fan-out applies to both
// save and load; the bytes are identical for any worker count.

// ErrGoldenMismatch means a golden image was produced by a different
// configuration (or kind of simulator) than the one trying to load it.
var ErrGoldenMismatch = errors.New("pipeline: golden image does not match")

// memChunk is the memory-image slice carried per frame: large enough to
// compress well, small enough that frames spread across workers.
const memChunk = 1 << 18

// goldenFixedFrames is the number of non-extent, non-memory frames.
const goldenFixedFrames = 5

// WriteGoldenImage saves the pipeline's complete state to path, compressing
// frames across workers goroutines. meta identifies the producing
// configuration; LoadGoldenImage refuses images whose meta differs.
func (p *Pipeline) WriteGoldenImage(path string, meta []byte, workers int) (ckptio.Stats, error) {
	p.space.reindex()
	w := ckptio.NewWriter()
	w.Frame(ckptio.StyleRaw).Add(meta)
	w.Frame(ckptio.StyleRaw).Add(p.goldenBookkeeping())

	strag := make([]byte, 8*len(p.space.stragglers))
	for i, idx := range p.space.stragglers {
		binary.LittleEndian.PutUint64(strag[i*8:], *p.space.elems[idx].word)
	}
	w.Frame(ckptio.StyleFlate).Add(strag)

	for _, ex := range p.space.extents {
		buf := make([]byte, 8*(ex.end-ex.off))
		for i, word := range p.space.packed[ex.off:ex.end] {
			binary.LittleEndian.PutUint64(buf[i*8:], word)
		}
		w.Frame(ckptio.StyleFlate).Add(buf)
	}

	pf := w.Frame(ckptio.StyleFlate)
	pf.Add(p.dir.SaveState())
	pf.Add(p.btb.SaveState())
	pf.Add(p.ras.SaveState())
	if jrs, ok := p.conf.(*predictor.JRS); ok {
		pf.Add(jrs.SaveState())
	} else {
		pf.Add(nil)
	}
	if p.memdep != nil {
		pf.Add(p.memdep.SaveState())
	} else {
		pf.Add(nil)
	}

	cf := w.Frame(ckptio.StyleFlate)
	cf.Add(p.l1i.SaveState())
	cf.Add(p.l1d.SaveState())
	cf.Add(p.l2.SaveState())
	cf.Add(p.itlb.SaveState())
	cf.Add(p.dtlb.SaveState())

	img := p.mem.SaveState()
	for off := 0; off < len(img) || off == 0; off += memChunk {
		end := off + memChunk
		if end > len(img) {
			end = len(img)
		}
		w.Frame(ckptio.StyleFlate).Add(img[off:end])
		if end == len(img) {
			break
		}
	}

	if err := w.WriteFile(path, workers); err != nil {
		return ckptio.Stats{}, err
	}
	return w.Stats(), nil
}

// LoadGoldenImage restores a WriteGoldenImage file into this pipeline,
// decoding frames across workers goroutines. The pipeline must be built
// from the same Config the image was saved under; wantMeta must equal the
// meta the image was saved with, or ErrGoldenMismatch is returned. Hooks
// and telemetry are untouched.
func (p *Pipeline) LoadGoldenImage(path string, wantMeta []byte, workers int) error {
	p.space.reindex()
	f, err := ckptio.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	frames, err := f.ReadAll(workers)
	if err != nil {
		return err
	}
	nExt := len(p.space.extents)
	if len(frames) < goldenFixedFrames+nExt {
		return fmt.Errorf("%w: image has %d frames, configuration needs at least %d",
			ErrGoldenMismatch, len(frames), goldenFixedFrames+nExt)
	}
	if len(frames[0]) != 1 || !bytes.Equal(frames[0][0], wantMeta) {
		return fmt.Errorf("%w: image meta %q, want %q", ErrGoldenMismatch, firstBuf(frames[0]), wantMeta)
	}
	if len(frames[1]) != 1 {
		return fmt.Errorf("%w: bookkeeping frame has %d buffers", ErrGoldenMismatch, len(frames[1]))
	}
	if err := p.loadGoldenBookkeeping(frames[1][0]); err != nil {
		return err
	}

	strag := frames[2]
	if len(strag) != 1 || len(strag[0]) != 8*len(p.space.stragglers) {
		return fmt.Errorf("%w: straggler frame holds %d bytes, want %d",
			ErrGoldenMismatch, len(firstBuf(strag)), 8*len(p.space.stragglers))
	}
	for i, idx := range p.space.stragglers {
		*p.space.elems[idx].word = binary.LittleEndian.Uint64(strag[0][i*8:])
	}

	for e, ex := range p.space.extents {
		fr := frames[3+e]
		want := 8 * (ex.end - ex.off)
		if len(fr) != 1 || len(fr[0]) != want {
			return fmt.Errorf("%w: extent frame %d holds %d bytes, want %d",
				ErrGoldenMismatch, e, len(firstBuf(fr)), want)
		}
		for i := range p.space.packed[ex.off:ex.end] {
			p.space.packed[ex.off+i] = binary.LittleEndian.Uint64(fr[0][i*8:])
		}
	}

	pf := frames[3+nExt]
	if len(pf) != 5 {
		return fmt.Errorf("%w: predictor frame has %d buffers, want 5", ErrGoldenMismatch, len(pf))
	}
	if err := p.dir.LoadState(pf[0]); err != nil {
		return err
	}
	if err := p.btb.LoadState(pf[1]); err != nil {
		return err
	}
	if err := p.ras.LoadState(pf[2]); err != nil {
		return err
	}
	if jrs, ok := p.conf.(*predictor.JRS); ok {
		if err := jrs.LoadState(pf[3]); err != nil {
			return err
		}
	} else if len(pf[3]) != 0 {
		return fmt.Errorf("%w: image carries JRS state but this pipeline has none", ErrGoldenMismatch)
	}
	switch {
	case p.memdep != nil && len(pf[4]) > 0:
		if err := p.memdep.LoadState(pf[4]); err != nil {
			return err
		}
	case p.memdep == nil && len(pf[4]) == 0:
		// both absent
	default:
		return fmt.Errorf("%w: memory-dependence predictor presence differs", ErrGoldenMismatch)
	}

	cf := frames[4+nExt]
	if len(cf) != 5 {
		return fmt.Errorf("%w: cache frame has %d buffers, want 5", ErrGoldenMismatch, len(cf))
	}
	for i, c := range []interface{ LoadState([]byte) error }{p.l1i, p.l1d, p.l2, p.itlb, p.dtlb} {
		if err := c.LoadState(cf[i]); err != nil {
			return err
		}
	}

	var img []byte
	for _, fr := range frames[goldenFixedFrames+nExt:] {
		for _, b := range fr {
			img = append(img, b...)
		}
	}
	return p.mem.LoadState(img)
}

// firstBuf returns a frame's first buffer for error messages (nil-safe).
func firstBuf(bufs [][]byte) []byte {
	if len(bufs) == 0 {
		return nil
	}
	return bufs[0]
}

// goldenBookkeeping serialises the non-injectable simulator state plus a
// shape guard over the state space, so a mismatched configuration fails
// loudly before any word is written.
func (p *Pipeline) goldenBookkeeping() []byte {
	out := make([]byte, 0, 64+18*8+execSlots*9)
	u64 := func(v uint64) {
		var u [8]byte
		binary.LittleEndian.PutUint64(u[:], v)
		out = append(out, u[:]...)
	}
	u64(uint64(len(p.space.packed)))
	u64(uint64(len(p.space.stragglers)))
	u64(uint64(len(p.space.extents)))
	u64(p.cycle)
	out = append(out, byte(p.status), byte(p.excKind), boolByte(p.fetchFaulted))
	u64(p.excPC)
	u64(p.excAddr)
	u64(p.fetchStallUntil)
	s := p.stats
	for _, v := range []uint64{
		s.Cycles, s.Retired, s.Fetched, s.Dispatched, s.Issued,
		s.Branches, s.CondBranches, s.Mispredicts, s.CondMispredicts,
		s.CommittedCondMispredicts, s.HCMispredicts, s.Flushes,
		s.LoadsIssued, s.StoresRetired, s.ICacheMisses, s.DCacheMisses,
		s.L2Misses, s.MemOrderViolations,
	} {
		u64(v)
	}
	for i := 0; i < execSlots; i++ {
		out = append(out, boolByte(p.exec.busy[i]))
	}
	for i := 0; i < execSlots; i++ {
		u64(p.exec.doneAt[i])
	}
	return out
}

// loadGoldenBookkeeping is the inverse of goldenBookkeeping; it checks the
// shape guard against the live space before mutating anything.
func (p *Pipeline) loadGoldenBookkeeping(b []byte) error {
	want := 3*8 + 8 + 3 + 3*8 + 18*8 + execSlots + execSlots*8
	if len(b) != want {
		return fmt.Errorf("%w: bookkeeping frame %d bytes, want %d", ErrGoldenMismatch, len(b), want)
	}
	off := 0
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v
	}
	if packed, strag, ext := u64(), u64(), u64(); packed != uint64(len(p.space.packed)) ||
		strag != uint64(len(p.space.stragglers)) || ext != uint64(len(p.space.extents)) {
		return fmt.Errorf("%w: state-space shape %d/%d/%d, this configuration has %d/%d/%d",
			ErrGoldenMismatch, packed, strag, ext,
			len(p.space.packed), len(p.space.stragglers), len(p.space.extents))
	}
	p.cycle = u64()
	p.status = Status(b[off])
	p.excKind = arch.ExceptionKind(b[off+1])
	p.fetchFaulted = b[off+2] != 0
	off += 3
	p.excPC = u64()
	p.excAddr = u64()
	p.fetchStallUntil = u64()
	s := &p.stats
	for _, dst := range []*uint64{
		&s.Cycles, &s.Retired, &s.Fetched, &s.Dispatched, &s.Issued,
		&s.Branches, &s.CondBranches, &s.Mispredicts, &s.CondMispredicts,
		&s.CommittedCondMispredicts, &s.HCMispredicts, &s.Flushes,
		&s.LoadsIssued, &s.StoresRetired, &s.ICacheMisses, &s.DCacheMisses,
		&s.L2Misses, &s.MemOrderViolations,
	} {
		*dst = u64()
	}
	for i := 0; i < execSlots; i++ {
		p.exec.busy[i] = b[off] != 0
		off++
	}
	for i := 0; i < execSlots; i++ {
		p.exec.doneAt[i] = u64()
	}
	return nil
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
