package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestPromNameTable(t *testing.T) {
	// Every house metric name in the repo is dotted; all of them must
	// map to valid prom identifiers, and hostile names must too.
	cases := []struct{ in, want string }{
		{"cluster.retry.attempts", "cluster_retry_attempts"},
		{"cluster.retry.budget.exhausted", "cluster_retry_budget_exhausted"},
		{"serve.cache.hits", "serve_cache_hits"},
		{"serve.queue.depth.max", "serve_queue_depth_max"},
		{"fleet.http.responses", "fleet_http_responses"},
		{"chaos.injected.refuse", "chaos_injected_refuse"},
		{"already_valid_name", "already_valid_name"},
		{"with:colon", "with:colon"},
		{"9leading.digit", "_9leading_digit"},
		{"dash-and space", "dash_and_space"},
		{"unicode-µs", "unicode___s"}, // dash plus both bytes of µ replaced
		{"", "_"},
	}
	for _, c := range cases {
		if got := PromName(c.in); got != c.want {
			t.Errorf("PromName(%q) = %q, want %q", c.in, got, c.want)
		}
		if got := PromName(c.in); !promNameRe.MatchString(got) {
			t.Errorf("PromName(%q) = %q is not a valid prom identifier", c.in, got)
		}
	}
}

func promSnapshotForTest() PromSnapshot {
	lat := NewLatencyHistogram()
	for _, ns := range []int64{900, 15_000, 2_000_000, 2_000_000, 450_000_000} {
		lat.Observe(ns)
	}
	width := NewHistogram()
	for _, w := range []int64{1, 2, 2, 3, 17} {
		width.Observe(w)
	}
	return PromSnapshot{
		Counters: map[string]int64{
			"serve.cache.hits":       12,
			"cluster.retry.attempts": 3,
		},
		Gauges: map[string]int64{
			"serve.queue.depth":     1,
			"serve.queue.depth.max": 7,
		},
		Histograms: map[string]HistogramSnapshot{
			"serve.predict.latency.compute": lat.Snapshot(),
			"cluster.batch.fanout":          width.Snapshot(),
		},
	}
}

func TestWritePromPassesOwnLinter(t *testing.T) {
	// The linter is the same code CI runs against real scrapes; the
	// writer must produce output it accepts.
	var buf bytes.Buffer
	if err := WriteProm(&buf, promSnapshotForTest()); err != nil {
		t.Fatal(err)
	}
	if errs := LintProm(bytes.NewReader(buf.Bytes())); len(errs) > 0 {
		t.Fatalf("WriteProm output fails LintProm:\n%v\nexposition:\n%s", errs, buf.String())
	}

	out := buf.String()
	for _, want := range []string{
		"# TYPE serve_cache_hits counter",
		"serve_cache_hits 12",
		"# TYPE serve_queue_depth gauge",
		"# TYPE serve_predict_latency_compute_seconds histogram",
		`serve_predict_latency_compute_seconds_bucket{le="+Inf"} 5`,
		"serve_predict_latency_compute_seconds_count 5",
		"# TYPE cluster_batch_fanout histogram",
		`cluster_batch_fanout_bucket{le="4"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePromDeterministic(t *testing.T) {
	s := promSnapshotForTest()
	var a, b bytes.Buffer
	if err := WriteProm(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&b, s); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteProm is not deterministic over map iteration")
	}
}

func TestLintPromCatchesBreakage(t *testing.T) {
	cases := []struct{ name, text string }{
		{"bad metric name", "bad-name 1\n"},
		{"bad value", "ok_name notanumber\n"},
		{"duplicate sample", "x 1\nx 2\n"},
		{"dup type", "# TYPE x counter\n# TYPE x counter\nx 1\n"},
		{"type after sample", "x 1\n# TYPE x counter\n"},
		{"unknown type", "# TYPE x widget\nx 1\n"},
		{"negative counter", "# TYPE x counter\nx -4\n"},
		{"histogram missing inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"histogram count mismatch", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"},
		{"histogram decreasing buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"histogram le not increasing", "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"},
		{"bad label name", "x{0bad=\"v\"} 1\n"},
		{"unterminated label", "x{a=\"v 1\n"},
	}
	for _, c := range cases {
		if errs := LintProm(strings.NewReader(c.text)); len(errs) == 0 {
			t.Errorf("%s: linter accepted:\n%s", c.name, c.text)
		}
	}

	clean := "# TYPE ok counter\nok 3\nplain_untyped{path=\"/a b\",q=\"say \\\"hi\\\"\"} 1.5e-3 1700000000\n"
	if errs := LintProm(strings.NewReader(clean)); len(errs) > 0 {
		t.Errorf("linter rejected clean exposition: %v", errs)
	}
}
