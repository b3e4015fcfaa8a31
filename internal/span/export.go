package span

import (
	"encoding/json"
	"io"

	"repro/internal/obs"
)

// Writer streams kept traces as JSON Lines, one TraceRec per line, through
// the same codec as the obs epoch trace: obs.CreateJSONL[TraceRec] opens a
// file and obs.ReadJSONL[TraceRec] reads one back.
type Writer = obs.JSONLWriter[TraceRec]

// NewWriter wraps an io.Writer as a span sink.
func NewWriter(w io.Writer) *Writer { return obs.NewJSONLWriter[TraceRec](w) }

// Looks reports whether the first nonempty line of data parses as a span
// TraceRec rather than an obs epoch event — how cmd/sgdtrace sniffs the
// format when -spans is not given explicitly.
func Looks(line []byte) bool {
	var rec struct {
		Trace string  `json:"trace"`
		DurUS float64 `json:"dur_us"`
	}
	return json.Unmarshal(line, &rec) == nil && rec.Trace != ""
}
