package phys

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// A snapshot is a body set's every field in a compact binary layout:
// magic, version, body count, then per-body records (pos, vel, acc, mass,
// cost), all little-endian. The generators' goldens hash these bytes.

const (
	snapshotMagic   = uint64(0x7061727472656531) // "partree1"
	snapshotVersion = uint32(1)
)

// WriteSnapshot serializes the bodies to w.
func (b *Bodies) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := []any{snapshotMagic, snapshotVersion, uint64(b.N())}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("phys: snapshot header: %w", err)
		}
	}
	for i := 0; i < b.N(); i++ {
		rec := [11]float64{
			b.Pos[i].X, b.Pos[i].Y, b.Pos[i].Z,
			b.Vel[i].X, b.Vel[i].Y, b.Vel[i].Z,
			b.Acc[i].X, b.Acc[i].Y, b.Acc[i].Z,
			b.Mass[i],
			float64(b.Cost[i]),
		}
		if err := binary.Write(bw, binary.LittleEndian, rec[:]); err != nil {
			return fmt.Errorf("phys: snapshot body %d: %w", i, err)
		}
	}
	return bw.Flush()
}
