package encode

// Record frames. Append-only logs (internal/wal) need integrity per
// record, so they can tell a torn tail from a corrupted middle. A frame
// is
//
//	[uint32 payload length][uint32 CRC-32C of payload][payload]
//
// little-endian, CRC-32 Castagnoli (hardware-assisted on amd64/arm64 —
// frames sit on the ingest hot path, where IEEE's table walk would
// cost more than the copy).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// frameCRC is the Castagnoli table used by record frames.
var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// FrameOverhead is the per-record framing cost in bytes.
const FrameOverhead = 8

// ErrFrameTruncated reports a frame that extends past the available
// bytes — the expected shape of a torn tail after a crash, distinct
// from corruption (which is an ErrArtifactMismatch).
var ErrFrameTruncated = errors.New("encode: record frame truncated")

// AppendRecordFrame appends one framed record to dst and returns the
// extended slice. Empty payloads are legal to frame but readers treat
// a zero length as truncation (appenders must not write them; zeroed
// tail bytes would otherwise parse as an endless run of empty records).
func AppendRecordFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, frameCRC))
	return append(dst, payload...)
}

// ReadRecordFrame parses the frame at the start of data. It returns the
// payload (aliasing data) and the total frame size. A frame that runs
// past the end of data — or a zero length, which a torn zero-filled
// tail produces — is ErrFrameTruncated; a complete frame whose CRC does
// not match is corruption and fails as ErrArtifactMismatch.
func ReadRecordFrame(data []byte) (payload []byte, n int, err error) {
	if len(data) < FrameOverhead {
		return nil, 0, ErrFrameTruncated
	}
	size := binary.LittleEndian.Uint32(data)
	if size == 0 {
		return nil, 0, ErrFrameTruncated
	}
	n = FrameOverhead + int(size)
	if uint64(len(data)) < uint64(FrameOverhead)+uint64(size) {
		return nil, 0, ErrFrameTruncated
	}
	payload = data[FrameOverhead:n]
	if crc := binary.LittleEndian.Uint32(data[4:]); crc != crc32.Checksum(payload, frameCRC) {
		return nil, 0, fmt.Errorf("%w: record frame CRC mismatch", ErrArtifactMismatch)
	}
	return payload, n, nil
}
