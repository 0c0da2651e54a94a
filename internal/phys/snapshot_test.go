package phys

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestSnapshotEmptySystem: an empty body set writes the header alone —
// magic, version and a zero count.
func TestSnapshotEmptySystem(t *testing.T) {
	var buf bytes.Buffer
	if err := NewBodies(0).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var hdr struct {
		Magic   uint64
		Version uint32
		N       uint64
	}
	if err := binary.Read(&buf, binary.LittleEndian, &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Magic != snapshotMagic || hdr.Version != snapshotVersion || hdr.N != 0 || buf.Len() != 0 {
		t.Fatalf("empty snapshot header %+v with %d bytes after it", hdr, buf.Len())
	}
}
