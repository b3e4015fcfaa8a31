package serve

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestMetricsGolden: the /metrics body of a fixed serving state matches
// testdata/metrics.golden, rendered before the serving stats, the tracer,
// the SLO engine and the aggregator shared one encoder, byte for byte up to
// the one intended change (declareObservationCount).
func TestMetricsGolden(t *testing.T) {
	old, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := scrapeMetrics(t, fixedMetricsServer("serve", false))
	if want := declareObservationCount(string(old)); got != want {
		t.Fatalf("/metrics drifted from testdata/metrics.golden:\n%s", got)
	}
}

// declareObservationCount applies the exposition fix to a body rendered
// before it: the sgd_observation_count samples, formerly interleaved into
// the sgd_observation_sum block with no header of their own, move into
// their own declared family after it. Both are the last families of the
// aggregator snapshot, which ends the body.
func declareObservationCount(old string) string {
	var b, counts strings.Builder
	for _, line := range strings.SplitAfter(old, "\n") {
		if strings.HasPrefix(line, "sgd_observation_count{") {
			counts.WriteString(line)
		} else {
			b.WriteString(line)
		}
	}
	b.WriteString("# HELP sgd_observation_count Number of sampled observation values.\n# TYPE sgd_observation_count counter\n")
	return b.String() + counts.String()
}

// TestMetricsExpositionLint checks a full sgdserve-shaped /metrics body —
// serve stats, tracer, SLO and the aggregator's families with several
// observation metrics — against the exposition format: every sample belongs
// to a family declared exactly once (# HELP and # TYPE), each family's
// samples are contiguous under its header, and label values unescape back
// to their input, here an engine name holding both `"` and `\`.
func TestMetricsExpositionLint(t *testing.T) {
	const engine = `we"ird\eng`
	body := scrapeMetrics(t, fixedMetricsServer(engine, true))
	samples, errs := lintExposition(body)
	for _, err := range errs {
		t.Error(err)
	}
	engines, observed := 0, map[string]bool{}
	for _, s := range samples {
		if e, ok := s.labels["engine"]; ok && e != "hogwild" {
			engines++
			if e != engine {
				t.Errorf("%s: engine label unescapes to %q, want %q", s.name, e, engine)
			}
			if s.name == "sgd_observation_count" {
				observed[s.labels["metric"]] = true
			}
		}
	}
	if engines == 0 || len(observed) < 2 {
		t.Fatalf("body lacks the labelled runs or observation metrics it was built with (%d engine samples, %d metrics):\n%s",
			engines, len(observed), body)
	}
}

// promSample is one parsed exposition sample line.
type promSample struct {
	name   string
	labels map[string]string
}

// lintExposition parses a Prometheus text body and reports every
// violation of the family rules.
func lintExposition(body string) ([]promSample, []error) {
	var (
		samples []promSample
		errs    []error
		helps   = map[string]bool{}
		types   = map[string]string{}
		cur     string
	)
	fail := func(n int, format string, a ...any) {
		errs = append(errs, fmt.Errorf("line %d: "+format, append([]any{n}, a...)...))
	}
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		n := i + 1
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if helps[fields[2]] {
				fail(n, "# HELP %s repeated", fields[2])
			}
			helps[fields[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			name := fields[2]
			if _, dup := types[name]; dup {
				fail(n, "family %s declared twice", name)
			}
			if !helps[name] {
				fail(n, "family %s has no # HELP", name)
			}
			types[name] = fields[len(fields)-1]
			cur = name
		case line == "" || strings.HasPrefix(line, "#"):
			fail(n, "unexpected line %q", line)
		default:
			s, err := parseSample(line)
			if err != nil {
				fail(n, "%v", err)
				continue
			}
			samples = append(samples, s)
			family := s.name
			if _, ok := types[family]; !ok {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					if base := strings.TrimSuffix(s.name, suffix); base != s.name && types[base] == "histogram" {
						family = base
					}
				}
			}
			switch {
			case types[family] == "":
				fail(n, "sample %s belongs to no declared family", s.name)
			case family != cur:
				fail(n, "sample %s sits outside its family's block (under %s)", s.name, cur)
			}
		}
	}
	return samples, errs
}

// parseSample parses `name{k="v",...} value`, unescaping label values.
func parseSample(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	end := strings.IndexAny(line, "{ ")
	if end <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.name, line = line[:end], line[end:]
	if strings.HasPrefix(line, "{") {
		line = line[1:]
		for !strings.HasPrefix(line, "}") {
			eq := strings.Index(line, `="`)
			if eq <= 0 {
				return s, fmt.Errorf("%s: malformed label in %q", s.name, line)
			}
			key := line[:eq]
			line = line[eq+2:]
			var v strings.Builder
			for {
				if line == "" {
					return s, fmt.Errorf("%s: unterminated label %s", s.name, key)
				}
				c := line[0]
				line = line[1:]
				if c == '"' {
					break
				}
				if c == '\\' {
					if line == "" {
						return s, fmt.Errorf("%s: dangling escape in label %s", s.name, key)
					}
					switch line[0] {
					case '\\', '"':
						v.WriteByte(line[0])
					case 'n':
						v.WriteByte('\n')
					default:
						return s, fmt.Errorf("%s: bad escape \\%c in label %s", s.name, line[0], key)
					}
					line = line[1:]
					continue
				}
				v.WriteByte(c)
			}
			s.labels[key] = v.String()
			line = strings.TrimPrefix(line, ",")
		}
		line = line[1:]
	}
	if !strings.HasPrefix(line, " ") {
		return s, fmt.Errorf("%s: no value", s.name)
	}
	if _, err := strconv.ParseFloat(line[1:], 64); err != nil {
		return s, fmt.Errorf("%s: bad value %q", s.name, line[1:])
	}
	return s, nil
}
