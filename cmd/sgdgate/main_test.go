package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunUsageErrors(t *testing.T) {
	const usageLine = "usage: sgdgate {run|compare}"
	cases := []struct {
		args      []string
		wantUsage bool // the subcommand itself is rejected, not one of its flags
	}{
		{nil, true},
		{[]string{"nosuchsubcommand"}, true},
		{[]string{"bench", "-baseline", "a.json", "-new", "b.json"}, true},
		{[]string{"compare", "-badflag"}, false},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) exit %d, want 2", tc.args, code)
		}
		if tc.wantUsage && !strings.Contains(stderr.String(), usageLine) {
			t.Errorf("run(%v) stderr %q lacks %q", tc.args, stderr.String(), usageLine)
		}
	}
}
