package obs_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/span"
)

// FuzzReadJSONL: the one JSONL reader never panics, and what it accepts the
// writer writes back as records that read back equal — bytes that are a
// fixed point of read-then-write. One codec serves both trace formats, so
// each input is tried as epoch events and as span traces.
func FuzzReadJSONL(f *testing.F) {
	for _, seed := range []string{
		`{"engine":"async/gpu","dataset":"w8a","epoch":2,"seconds":0.5,"phases":{"gradient":0.3},"counters":{"batches":4},"observations":{"batch_seconds":{"count":2,"sum":0.1,"min":0.04,"max":0.06}}}` + "\n",
		`{"trace":"00000000000000ab","root":"predict","dur_us":1200,"keep":"fault","fault":"straggler","spans":[{"name":"score","parent":"","start_us":0,"dur_us":900,"worker":-1,"fault":"straggler"}]}` + "\n",
		"\n\n{}\nnull\n",
		`{"phases":{},"spans":[]}`,
		"{\"engine\":\"\xff\"}\r\n",
		"not json\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip[obs.Event](t, data)
		roundTrip[span.TraceRec](t, data)
	})
}

// roundTrip checks the writer/reader property for one record type.
func roundTrip[T any](t *testing.T, data []byte) {
	recs, err := obs.ReadJSONL[T](bytes.NewReader(data))
	if err != nil {
		return
	}
	first := writeAll(t, recs)
	back, err := obs.ReadJSONL[T](bytes.NewReader(first))
	if err != nil {
		t.Fatalf("%T: writer output unreadable: %v\n%s", recs, err, first)
	}
	if len(back) != len(recs) {
		t.Fatalf("%T: wrote %d records, read back %d", recs, len(recs), len(back))
	}
	second := writeAll(t, back)
	if !bytes.Equal(first, second) {
		t.Fatalf("%T: rewrite changed the bytes:\n%s\n%s", recs, first, second)
	}
	again, err := obs.ReadJSONL[T](bytes.NewReader(second))
	if err != nil || !reflect.DeepEqual(again, back) {
		t.Fatalf("%T: written records read back different (%v):\n%+v\n%+v", recs, err, back, again)
	}
}

func writeAll[T any](t *testing.T, recs []T) []byte {
	var buf bytes.Buffer
	w := obs.NewJSONLWriter[T](&buf)
	for i := range recs {
		w.Write(&recs[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
