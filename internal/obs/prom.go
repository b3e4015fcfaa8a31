package obs

import (
	"fmt"
	"io"
	"strings"
)

// The one Prometheus text-exposition encoder. Every /metrics family in the
// repo — the training aggregator, the serving stats, the span tracer and the
// SLO engine — is written through PromFamily and PromSample, so the format
// rules live here once: each family is declared by one # HELP/# TYPE pair
// immediately followed by all of its samples, and label values are escaped
// exactly once.

// PromFamily writes one metric family's # HELP and # TYPE header. typ is
// counter, gauge or histogram; the family's samples must follow directly.
func PromFamily(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// PromSample writes one sample line, name{k="v",...} value. labels alternate
// key and value. v is an integer (rendered in decimal) or a float64
// (rendered %g).
func PromSample(w io.Writer, name string, v any, labels ...string) {
	var b strings.Builder
	b.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			b.WriteByte('{')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	if len(labels) > 1 {
		b.WriteByte('}')
	}
	fmt.Fprintf(&b, " %v\n", v)
	io.WriteString(w, b.String())
}

// escapeLabel escapes a Prometheus label value: backslash, double quote and
// newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
