package promtext

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"broadcastic/internal/telemetry"
)

// Exposition grammar for the subset this writer emits: TYPE comments and
// counter/gauge/histogram samples with optional label blocks whose values
// escape backslash, quote and newline.
var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	typeLineRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	labelRe      = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"`
	sampleLineRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{` + labelRe + `(?:,` + labelRe + `)*\})? (-?[0-9.e+\-]+|NaN|\+Inf|-Inf)$`)
)

// checkExposition validates that every line of an exposition document
// matches the grammar and that no sample series repeats.
func checkExposition(doc string) error {
	seen := make(map[string]bool)
	for i, line := range strings.Split(doc, "\n") {
		if line == "" {
			continue
		}
		if typeLineRe.MatchString(line) {
			continue
		}
		m := sampleLineRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d not in exposition grammar: %q", i+1, line)
		}
		series := m[1] + m[2]
		// Histogram buckets repeat the name with different le labels; the
		// full series string (name+labels) must still be unique.
		if seen[series] {
			return fmt.Errorf("line %d duplicates series %q", i+1, series)
		}
		seen[series] = true
	}
	return nil
}

// FuzzWrite feeds adversarial metric names and NaN/Inf observations
// through a Collector and requires the exposition to stay parseable with
// unique series, whatever the input.
func FuzzWrite(f *testing.F) {
	f.Add("blackboard.bits", "sim.cell_ns", int64(7), 42.0)
	f.Add("", "9 weird/name\xff", int64(-3), math.Inf(1))
	f.Add("a.b", "a_b", int64(1), math.NaN())
	f.Add("dup", "dup", int64(5), math.Inf(-1))
	f.Add("# TYPE evil counter\nevil 1", "le=\"inject\"", int64(0), -0.0)
	f.Add(`jobs.queue_depth{tenant="t1"}`, `jobs.queue_wait_ns{tenant="ev\"il\\\n"}`, int64(2), 9.0)
	f.Add(`half{tenant="unclosed`, `dup.keys{a.b="1",a_b="2"}`, int64(1), 1.0)
	f.Add(`hist{le="user"}`, `hist{le="user"}`, int64(1), 2.0)
	f.Fuzz(func(t *testing.T, counterName, histName string, delta int64, obs float64) {
		col := telemetry.NewCollector()
		col.Count(counterName, delta)
		col.Count(counterName+".more", 1)
		col.Observe(histName, obs)
		col.Observe(histName, 3)
		var sb strings.Builder
		if _, err := WriteCollector(&sb, col); err != nil {
			t.Fatalf("Write failed: %v", err)
		}
		if err := checkExposition(sb.String()); err != nil {
			t.Fatalf("invalid exposition for counter=%q hist=%q obs=%v:\n%v\n%s",
				counterName, histName, obs, err, sb.String())
		}
		if !metricNameRe.MatchString(SanitizeName(counterName)) {
			t.Fatalf("SanitizeName(%q) = %q is not a valid metric name", counterName, SanitizeName(counterName))
		}
	})
}
