package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWrite(t *testing.T) {
	t.Run("parts land in order", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "f")
		if err := os.WriteFile(path, []byte("old contents"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Write(path, []byte("ab"), nil, []byte("c"), []byte("de")); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "abcde" {
			t.Fatalf("file holds %q, want %q", got, "abcde")
		}
		requireNoTemps(t, filepath.Dir(path))
	})

	t.Run("missing parent created", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "a", "b", "f")
		if err := Write(path, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "x" {
			t.Fatalf("read back %q, %v", got, err)
		}
	})

	t.Run("failed publish leaves the destination", func(t *testing.T) {
		// A directory at the destination makes the rename fail after the
		// temp file was written and fsynced.
		root := t.TempDir()
		path := filepath.Join(root, "f")
		keep := filepath.Join(path, "keep")
		if err := os.MkdirAll(path, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(keep, []byte("kept"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Write(path, []byte("new")); err == nil {
			t.Fatal("publishing over a directory succeeded")
		}
		if got, err := os.ReadFile(keep); err != nil || string(got) != "kept" {
			t.Fatalf("destination changed: %q, %v", got, err)
		}
		requireNoTemps(t, root)
	})
}

// requireNoTemps fails if a temp file from Write is left in dir.
func requireNoTemps(t *testing.T, dir string) {
	t.Helper()
	temps, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) != 0 {
		t.Fatalf("temp files left behind: %v", temps)
	}
}
