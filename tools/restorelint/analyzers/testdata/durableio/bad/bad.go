// Package fixture exercises every durableio diagnostic: a write path that
// renames without fsync (and never syncs the written file at all), a read
// path that trusts records without a CRC check, and a rename whose source
// cannot be traced to a synced file.
package fixture

import (
	"io"
	"os"
	"path/filepath"
)

type Record struct {
	Slot    int
	Payload []byte
}

func publishUnsynced(dir string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "m.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil { // want "written but never fsynced"
		return err
	}
	tmp.Close()
	return os.Rename(tmp.Name(), filepath.Join(dir, "manifest")) // want "without an earlier Sync"
}

func readNoCRC(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return out, nil
		}
		out = append(out, Record{Slot: int(hdr[0])}) // want "without a CRC check"
	}
}

func renameUntraced(a, b string) error {
	return os.Rename(a, b) // want "cannot be traced"
}

// writeFramesUnsynced is the container write path with the fsync lost in a
// refactor: the loop writes land in the page cache and the rename publishes
// a possibly-empty file.
func writeFramesUnsynced(path string, frames [][]byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "img.tmp")
	if err != nil {
		return err
	}
	for _, fr := range frames {
		if _, err := tmp.Write(fr); err != nil { // want "written but never fsynced"
			return err
		}
	}
	tmp.Close()
	return os.Rename(tmp.Name(), path) // want "without an earlier Sync"
}

// scanRecordsNoCRC trusts record bytes read from an open file without
// verifying a checksum first.
func scanRecordsNoCRC(f *os.File) ([]Record, error) {
	var out []Record
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return out, nil
		}
		body := make([]byte, 32)
		if _, err := io.ReadFull(f, body); err != nil {
			return out, nil
		}
		out = append(out, Record{Slot: int(hdr[0]), Payload: body}) // want "without a CRC check"
	}
}
