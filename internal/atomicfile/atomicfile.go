// Package atomicfile publishes whole files so that a crash never leaves a
// partial one under the final name. Campaign manifests, golden images and
// the daemon's job records all go through Write.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write replaces path with the concatenation of parts. The bytes land in a
// temp file beside path, which is fsynced, closed and renamed over path;
// the directory is then fsynced so the rename itself is durable. A crash at
// any point leaves either the old file or the new one under path. Missing
// parent directories are created. A platform that refuses to fsync a
// directory is tolerated.
func Write(path string, parts ...[]byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
