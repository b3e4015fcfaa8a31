package ps

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// awkwardFloats are the values a text codec loses: NaNs with payloads (quiet
// and signalling), both infinities, both zeros, the smallest subnormal and
// the extremes.
var awkwardFloats = []float64{
	math.Float64frombits(0x7ff8000000000123),
	math.Float64frombits(0xfff0000000000001),
	math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, 1.0 / 3,
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// reseal recomputes a tampered frame's CRC, so the check under test is the
// one the tampering aims at rather than the checksum.
func reseal(b []byte) []byte {
	body := len(b) - frameTrailer
	binary.LittleEndian.PutUint32(b[body:], crc32.Checksum(b[:body], crcTable))
	return b
}

// malformedPushFrames lists every way a /push body can be wrong on the wire.
func malformedPushFrames() map[string][]byte {
	valid := func() []byte {
		return appendPushRequest(nil, &PushRequest{Shard: 0, Worker: 1, Seq: 1, Count: 1, Grad: make([]float64, 8)})
	}
	tamper := func(f func(b []byte)) []byte {
		b := valid()
		f(b)
		return reseal(b)
	}
	flipped := valid()
	flipped[len(flipped)-1] ^= 0xff
	return map[string][]byte{
		"empty":              nil,
		"truncated":          valid()[:len(valid())-5],
		"header only":        valid()[:frameHeader],
		"trailing byte":      append(valid(), 0),
		"wrong version":      tamper(func(b []byte) { b[0] = frameVersion + 1 }),
		"wrong kind":         appendPullReply(nil, 0, 0, make([]float64, 8)),
		"reserved set":       tamper(func(b []byte) { b[3] = 1 }),
		"flipped CRC":        flipped,
		"count beyond body":  tamper(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 9) }),
		"count over ceiling": tamper(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], math.MaxUint32) }),
		"oversized":          make([]byte, maxFrameBytes+1),
	}
}

// FuzzPSFrame: decoding arbitrary bytes as any kind never panics and never
// sizes a slice from a count it has not checked against the bytes in hand;
// whatever does decode survives encode/decode with every float's bits intact;
// and the input's own bytes, read as raw float64 words, round-trip the same.
func FuzzPSFrame(f *testing.F) {
	f.Add(appendPullReply(nil, 3, 41, awkwardFloats))
	f.Add(appendPushRequest(nil, &PushRequest{Shard: 1, Worker: 2, Seq: 9, Basis: 7, Count: 16, Grad: awkwardFloats}))
	f.Add(appendPushReply(nil, PushReply{Applied: true, Staleness: 2, Version: 8}))
	f.Add(appendPushReply(nil, PushReply{Duplicate: true, Version: 8}))
	for name, b := range malformedPushFrames() {
		if name != "oversized" {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var pull PullReply
		if err := decodePullReply(b, &pull); err != nil {
			if pull.Params != nil {
				t.Fatalf("rejected pull reply still allocated %d floats", cap(pull.Params))
			}
		} else {
			if 8*cap(pull.Params) > 2*len(b) { // 2: size-class rounding
				t.Fatalf("%d-byte frame allocated %d floats", len(b), cap(pull.Params))
			}
			var again PullReply
			if err := decodePullReply(appendPullReply(nil, pull.Shard, pull.Version, pull.Params), &again); err != nil {
				t.Fatal(err)
			}
			if again.Shard != pull.Shard || again.Version != pull.Version || !sameBits(again.Params, pull.Params) {
				t.Fatalf("pull reply round trip: %+v -> %+v", pull, again)
			}
		}

		var push PushRequest
		if err := decodePushRequest(b, &push); err != nil {
			if push.Grad != nil {
				t.Fatalf("rejected push request still allocated %d floats", cap(push.Grad))
			}
		} else {
			if 8*cap(push.Grad) > 2*len(b) {
				t.Fatalf("%d-byte frame allocated %d floats", len(b), cap(push.Grad))
			}
			var again PushRequest
			if err := decodePushRequest(appendPushRequest(nil, &push), &again); err != nil {
				t.Fatal(err)
			}
			same := sameBits(again.Grad, push.Grad)
			again.Grad, push.Grad = nil, nil
			if !same || !reflect.DeepEqual(again, push) {
				t.Fatalf("push request round trip: %+v -> %+v", push, again)
			}
		}

		if rep, err := decodePushReply(b); err == nil {
			again, err := decodePushReply(appendPushReply(nil, rep))
			if err != nil || again != rep {
				t.Fatalf("push reply round trip: %+v -> %+v (%v)", rep, again, err)
			}
		}

		words := appendFloats(nil, b)
		var back PullReply
		if err := decodePullReply(appendPullReply(nil, len(b), int64(len(words)), words), &back); err != nil {
			t.Fatal(err)
		}
		if back.Shard != len(b) || back.Version != int64(len(words)) || !sameBits(back.Params, words) {
			t.Fatalf("raw words did not survive a frame: %x", b)
		}
	})
}

// TestFrameReuseDoesNotAllocate: encoding into, and decoding out of, buffers
// that have been through one call costs no allocation — what lets the two
// HTTP sides run on pooled buffers.
func TestFrameReuseDoesNotAllocate(t *testing.T) {
	req := PushRequest{Shard: 1, Worker: 2, Seq: 3, Basis: 4, Count: 16, Grad: make([]float64, 75)}
	var buf []byte
	var got PushRequest
	var pull PullReply
	var rep PushReply
	cycle := func() {
		buf = appendPushRequest(buf[:0], &req)
		if err := decodePushRequest(buf, &got); err != nil {
			t.Fatal(err)
		}
		buf = appendPullReply(buf[:0], 1, 9, req.Grad)
		if err := decodePullReply(buf, &pull); err != nil {
			t.Fatal(err)
		}
		buf = appendPushReply(buf[:0], PushReply{Applied: true, Version: 9})
		var err error
		if rep, err = decodePushReply(buf); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("frame encode+decode into reused buffers allocates %v times per cycle", n)
	}
	if got.Seq != 3 || len(got.Grad) != 75 || pull.Version != 9 || !rep.Applied {
		t.Fatalf("decoded %+v / %+v / %+v", got, pull, rep)
	}
}

// TestHTTPMalformedFramesAre400: every malformed /push body is an HTTP 400
// carrying a JSON error, and none of them moves a server tally.
func TestHTTPMalformedFramesAre400(t *testing.T) {
	srv := oneShardServer(t, ModeAsync)
	ts := httptest.NewServer(NewHTTPServer(srv).Handler())
	defer ts.Close()
	before := srv.StatsSnapshot()
	for name, body := range malformedPushFrames() {
		resp, err := ts.Client().Post(ts.URL+"/push", frameContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Content-Type") != "application/json" || err != nil || e.Error == "" {
			t.Errorf("%s: status %d, content type %q, error body %q (%v); want a JSON 400",
				name, resp.StatusCode, resp.Header.Get("Content-Type"), e.Error, err)
		}
	}
	if after := srv.StatsSnapshot(); !reflect.DeepEqual(before, after) {
		t.Fatalf("malformed frames moved the server's tallies: %+v -> %+v", before, after)
	}
}

// TestHTTPPullBitExact: values no decimal codec carries faithfully come out
// of a pull over HTTP with the bits they went in with.
func TestHTTPPullBitExact(t *testing.T) {
	sh, err := NewSharding(len(awkwardFloats), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ModeSync, sh, 0.5, 1)
	if err := srv.Load(awkwardFloats); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPServer(srv).Handler())
	defer ts.Close()
	rep, err := (&HTTPTransport{BaseURL: ts.URL, Client: ts.Client()}).Pull(0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(rep.Params, awkwardFloats) {
		t.Fatalf("pulled %x, loaded %x", rep.Params, awkwardFloats)
	}
}
