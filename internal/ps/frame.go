package ps

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"
)

// The wire frame of /pull and /push (DESIGN §15 has the layout table): an
// 8-byte header — version, kind, two zero bytes, float64 count as a uint32 —
// then the kind's fixed int64 fields, the float64 payload as math.Float64bits
// words (NaN payloads, -0 and subnormals cross bit for bit), and a CRC-32C of
// everything before it. All integers are little-endian. A frame's length is a
// function of its kind and count, and decoding checks the count against the
// bytes actually received before anything is sized from it.
const (
	frameVersion = 1

	kindPullReply   = 1
	kindPushRequest = 2
	kindPushReply   = 3

	frameHeader  = 8
	frameTrailer = 4

	// maxFrameBytes bounds a frame on both sides of the wire (the same 8 MiB
	// the JSON body reader allowed): room for a million-component shard.
	maxFrameBytes = 8 << 20

	pullReplyFields   = 2 // shard, version
	pushRequestFields = 5 // shard, worker, seq, basis, count
	pushReplyFields   = 3 // flags, staleness, version

	flagApplied   = 1 << 0
	flagDuplicate = 1 << 1
)

var (
	errFrameTooLarge = fmt.Errorf("ps: frame exceeds %d bytes", maxFrameBytes)
	crcTable         = crc32.MakeTable(crc32.Castagnoli)
)

func badFrame(format string, a ...any) error {
	return fmt.Errorf("ps: bad frame: "+format, a...)
}

// wireBuf is one pooled pair of scratch buffers: frame bytes, and (server
// side) the gradient decoded out of them.
type wireBuf struct {
	b []byte
	f []float64
}

var wirePool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 1024)} }}

// appendFrame appends one frame to dst.
func appendFrame(dst []byte, kind byte, fields []int64, floats []float64) []byte {
	start := len(dst)
	dst = slices.Grow(dst, frameHeader+8*(len(fields)+len(floats))+frameTrailer)
	dst = append(dst, frameVersion, kind, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(floats)))
	for _, v := range fields {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	for _, v := range floats {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// parseFrame checks b as one whole frame of the given kind, fills fields
// (whose length is the kind's field count) and returns the float payload's
// bytes, still inside b.
func parseFrame(b []byte, kind byte, fields []int64) ([]byte, error) {
	fixed := frameHeader + 8*len(fields) + frameTrailer
	if len(b) < fixed {
		return nil, badFrame("%d bytes, kind %d needs at least %d", len(b), kind, fixed)
	}
	if len(b) > maxFrameBytes {
		return nil, errFrameTooLarge
	}
	if b[0] != frameVersion {
		return nil, badFrame("version %d, want %d", b[0], frameVersion)
	}
	if b[1] != kind {
		return nil, badFrame("kind %d, want %d", b[1], kind)
	}
	if b[2] != 0 || b[3] != 0 {
		return nil, badFrame("reserved bytes %02x%02x, want zero", b[2], b[3])
	}
	// The count is compared as uint64, so a hostile 0xFFFFFFFF cannot wrap
	// into a small length on any platform.
	count := uint64(binary.LittleEndian.Uint32(b[4:]))
	if uint64(len(b)-fixed) != 8*count {
		return nil, badFrame("count %d does not match a %d-byte body", count, len(b))
	}
	body := len(b) - frameTrailer
	if got, want := crc32.Checksum(b[:body], crcTable), binary.LittleEndian.Uint32(b[body:]); got != want {
		return nil, badFrame("CRC %08x, trailer says %08x", got, want)
	}
	for i := range fields {
		fields[i] = int64(binary.LittleEndian.Uint64(b[frameHeader+8*i:]))
	}
	return b[frameHeader+8*len(fields) : body], nil
}

// appendFloats appends the payload's float64s to dst.
func appendFloats(dst []float64, payload []byte) []float64 {
	dst = slices.Grow(dst, len(payload)/8)
	for ; len(payload) >= 8; payload = payload[8:] {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(payload)))
	}
	return dst
}

func appendPullReply(dst []byte, shard int, version int64, params []float64) []byte {
	f := [pullReplyFields]int64{int64(shard), version}
	return appendFrame(dst, kindPullReply, f[:], params)
}

// decodePullReply decodes into rep, reusing rep.Params' capacity.
func decodePullReply(b []byte, rep *PullReply) error {
	var f [pullReplyFields]int64
	payload, err := parseFrame(b, kindPullReply, f[:])
	if err != nil {
		return err
	}
	rep.Shard, rep.Version = int(f[0]), f[1]
	rep.Params = appendFloats(rep.Params[:0], payload)
	return nil
}

func appendPushRequest(dst []byte, req *PushRequest) []byte {
	f := [pushRequestFields]int64{int64(req.Shard), int64(req.Worker), req.Seq, req.Basis, int64(req.Count)}
	return appendFrame(dst, kindPushRequest, f[:], req.Grad)
}

// decodePushRequest decodes into req, reusing req.Grad's capacity.
func decodePushRequest(b []byte, req *PushRequest) error {
	var f [pushRequestFields]int64
	payload, err := parseFrame(b, kindPushRequest, f[:])
	if err != nil {
		return err
	}
	req.Shard, req.Worker, req.Seq, req.Basis, req.Count = int(f[0]), int(f[1]), f[2], f[3], int(f[4])
	req.Grad = appendFloats(req.Grad[:0], payload)
	return nil
}

func appendPushReply(dst []byte, rep PushReply) []byte {
	var f [pushReplyFields]int64
	if rep.Applied {
		f[0] |= flagApplied
	}
	if rep.Duplicate {
		f[0] |= flagDuplicate
	}
	f[1], f[2] = rep.Staleness, rep.Version
	return appendFrame(dst, kindPushReply, f[:], nil)
}

func decodePushReply(b []byte) (PushReply, error) {
	var f [pushReplyFields]int64
	payload, err := parseFrame(b, kindPushReply, f[:])
	if err != nil {
		return PushReply{}, err
	}
	if len(payload) != 0 {
		return PushReply{}, badFrame("push reply carries %d payload bytes", len(payload))
	}
	return PushReply{
		Applied:   f[0]&flagApplied != 0,
		Duplicate: f[0]&flagDuplicate != 0,
		Staleness: f[1],
		Version:   f[2],
	}, nil
}

// readFrame appends r to dst until EOF, like io.ReadAll into a reused
// buffer, but gives up once more than maxFrameBytes have arrived.
func readFrame(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):min(cap(dst), maxFrameBytes+1)])
		dst = dst[:len(dst)+n]
		if len(dst) > maxFrameBytes {
			return dst, errFrameTooLarge
		}
		if errors.Is(err, io.EOF) {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
