package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParsePrometheus reads Prometheus text exposition format and returns a
// map from sample name (including the label set, verbatim) to value. It
// validates the line grammar strictly enough for tests and smoke checks:
// every non-comment, non-blank line must be `name[{labels}] value`. It is
// a validator for this repository's own exposition, not a full
// implementation of the format (no timestamps, no escaped label quoting).
func ParsePrometheus(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// Split on the last space: label values may not contain spaces in
		// our exposition, but being conservative costs nothing.
		cut := strings.LastIndexByte(text, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("metrics: metrics line %d: no value separator: %q", line, text)
		}
		name, valStr := text[:cut], text[cut+1:]
		if !validSampleName(name) {
			return nil, fmt.Errorf("metrics: metrics line %d: malformed sample name %q", line, name)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: metrics line %d: bad value %q: %v", line, valStr, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// validSampleName accepts `metric_name` or `metric_name{label="v",...}`.
func validSampleName(s string) bool {
	name, labels, hasLabels := strings.Cut(s, "{")
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && !(i > 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	if !hasLabels {
		return true
	}
	if !strings.HasSuffix(labels, "}") {
		return false
	}
	labels = strings.TrimSuffix(labels, "}")
	for _, pair := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return false
		}
	}
	return true
}
