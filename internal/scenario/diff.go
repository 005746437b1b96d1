package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
)

// This file is the golden differ. Two comparisons exist: an exact
// line-by-line NDJSON diff for synthesize streams (the stream contract is
// byte determinism, so the diff is byte-strict), and a normalized JSON
// diff for evaluation results (timing fields stripped first — they are
// the only non-seed-determined numbers in a suite result).

// maxDiffLine bounds how much of a differing line the diff report quotes;
// a multi-kilobyte record would drown the readable part of the message.
const maxDiffLine = 200

// truncate clips a line for diff output.
func truncate(s string) string {
	if len(s) <= maxDiffLine {
		return s
	}
	return s[:maxDiffLine] + fmt.Sprintf("... (%d bytes total)", len(s))
}

// splitLines splits on '\n' dropping one trailing empty element, so a
// stream ending in a newline has as many lines as records.
func splitLines(s string) []string {
	lines := strings.Split(s, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		return lines[:n-1]
	}
	return lines
}

// DiffLines compares got against want line by line and returns a
// readable, human-actionable mismatch report ("" = equal). The report
// names the first differing line, quotes both sides, and counts lines so
// truncated or overlong streams are obvious at a glance.
func DiffLines(got, want string) string {
	if got == want {
		return ""
	}
	g, w := splitLines(got), splitLines(want)
	n := min(len(g), len(w))
	for i := 0; i < n; i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("first mismatch at line %d:\n  got:  %s\n  want: %s\n(got %d lines, want %d lines)",
				i+1, truncate(g[i]), truncate(w[i]), len(g), len(w))
		}
	}
	if len(g) > len(w) {
		return fmt.Sprintf("got %d extra line(s) past the %d expected; first extra line %d:\n  got:  %s",
			len(g)-len(w), len(w), len(w)+1, truncate(g[len(w)]))
	}
	if len(g) < len(w) {
		return fmt.Sprintf("stream truncated: got %d of %d expected lines; first missing line %d:\n  want: %s",
			len(g), len(w), len(g)+1, truncate(w[len(g)]))
	}
	// Same lines but different bytes: a trailing-newline difference.
	return "streams differ only in trailing whitespace (missing or extra final newline)"
}

// NormalizeResultJSON canonicalizes an evaluation-result JSON document for
// golden comparison: every object key ending in "_ms" is removed
// recursively (elapsed_ms, model_learn_ms, synth_ms, fig5's per-count
// wall-clocks — timings are machine-dependent), and so are "Workers" /
// "workers" keys (the result's config echoes the worker count; the suite
// contract is that worker counts affect wall-clock only, never numbers).
// Everything else in a suite result is seed-determined. The document is
// then re-marshaled with sorted keys and stable indentation. Both the
// golden writer and the checker run it, so the comparison is
// deterministic end to end.
func NormalizeResultJSON(raw []byte) ([]byte, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("parsing result JSON: %w", err)
	}
	v = stripTimings(v)
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// stripTimings removes "_ms"-suffixed and worker-count keys from every
// object in the tree.
func stripTimings(v any) any {
	switch t := v.(type) {
	case map[string]any:
		for k, val := range t {
			if strings.HasSuffix(k, "_ms") || k == "Workers" || k == "workers" {
				delete(t, k)
				continue
			}
			t[k] = stripTimings(val)
		}
		return t
	case []any:
		for i := range t {
			t[i] = stripTimings(t[i])
		}
		return t
	default:
		return v
	}
}
