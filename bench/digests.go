package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/campaignio"
)

// digestFile is the committed digests: workload -> seed -> op key -> digest.
type digestFile map[string]map[string]map[string]string

func readDigestFile(path string) (digestFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f digestFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// loadDigests returns the committed digests of one workload and seed, or
// nil when the seed is not pinned.
func loadDigests(path, workload string, seed int64) (map[string]string, error) {
	f, err := readDigestFile(path)
	if err != nil {
		return nil, err
	}
	return f[workload][strconv.FormatInt(seed, 10)], nil
}

// recordDigests pins one run's digests as the committed ones for its seed.
func recordDigests(path, workload string, seed int64, digests map[string]string) error {
	f, err := readDigestFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = make(digestFile), nil
	}
	if err != nil {
		return err
	}
	if f[workload] == nil {
		f[workload] = make(map[string]map[string]string)
	}
	f[workload][strconv.FormatInt(seed, 10)] = digests
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func digestBytes(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestJSON digests the canonical JSON of v.
func digestJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestBytes(data), nil
}

// digestCampaignDir digests a campaign directory's manifest and journal.
func digestCampaignDir(dir string) (string, error) {
	man, err := os.ReadFile(filepath.Join(dir, campaignio.ManifestName))
	if err != nil {
		return "", err
	}
	jr, err := os.ReadFile(filepath.Join(dir, campaignio.JournalName))
	if err != nil {
		return "", err
	}
	return digestBytes(man, []byte{0}, jr), nil
}

// digestTree digests every regular file under root with its relative path,
// in lexical order.
func digestTree(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// dirBytes is the total size of the regular files under root.
func dirBytes(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
