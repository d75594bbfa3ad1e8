package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/pager"
)

// Every generation the store writes is one frame in a log file: a fixed
// 32-byte header followed by the payload. The header carries its own
// CRC32C so a torn header is distinguishable from a torn payload — and
// Open can index a log by its headers alone — while the payload CRC32C
// catches bit-rot anywhere in the body. CRC32C (Castagnoli) is the
// checksum storage systems use for exactly this job: hardware-
// accelerated and strong against the burst errors torn writes produce.
//
//	[0:8]   magic "DRBLSEG1"
//	[8:16]  generation, LE
//	[16:24] payload length in bytes, LE
//	[24:28] CRC32C(payload), LE
//	[28:32] CRC32C(header[0:28]), LE
const headerSize = 32

var frameMagic = [8]byte{'D', 'R', 'B', 'L', 'S', 'E', 'G', '1'}

// castagnoli is the CRC32C table shared by all checksum computations.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a frame that failed verification: truncated or
// overwritten header, magic mismatch, a payload running past the end of
// its file, or a checksum that does not match the bytes. Every corrupt
// frame the recovery ladder skips surfaces (wrapped) as this error.
var ErrCorrupt = errors.New("durable: corrupt frame")

// frameHeader returns the header of a frame holding n payload bytes
// whose CRC32C is crc.
func frameHeader(gen, n uint64, crc uint32) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr[0:8], frameMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], gen)
	binary.LittleEndian.PutUint64(hdr[16:24], n)
	binary.LittleEndian.PutUint32(hdr[24:28], crc)
	binary.LittleEndian.PutUint32(hdr[28:32], crc32.Checksum(hdr[0:28], castagnoli))
	return hdr
}

// openHeader verifies one frame header and returns its generation and
// payload length.
func openHeader(hdr []byte) (gen, n uint64, err error) {
	if len(hdr) < headerSize {
		return 0, 0, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(hdr))
	}
	if crc32.Checksum(hdr[0:28], castagnoli) != binary.LittleEndian.Uint32(hdr[28:32]) {
		return 0, 0, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	if [8]byte(hdr[0:8]) != frameMagic {
		return 0, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[0:8])
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), binary.LittleEndian.Uint64(hdr[16:24]), nil
}

// readHeader reads and verifies the frame header at off; past the end
// of the file that fails with io.EOF.
func readHeader(f pager.BlockFile, off int64) (gen int64, n uint64, err error) {
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return 0, 0, err
	}
	g, n, err := openHeader(hdr[:])
	return int64(g), n, err
}

// openEnvelope verifies buf as exactly one frame and returns its
// generation and payload. Every failure wraps ErrCorrupt with the
// region that failed, so corruption tests can assert where the ladder
// stopped trusting the file.
func openEnvelope(buf []byte) (gen uint64, payload []byte, err error) {
	gen, n, err := openHeader(buf)
	if err != nil {
		return 0, nil, err
	}
	if n != uint64(len(buf)-headerSize) {
		return 0, nil, fmt.Errorf("%w: payload length %d, file carries %d", ErrCorrupt, n, len(buf)-headerSize)
	}
	payload = buf[headerSize:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[24:28]) {
		return 0, nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	return gen, payload, nil
}
