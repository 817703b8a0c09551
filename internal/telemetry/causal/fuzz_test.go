package causal

import (
	"strings"
	"testing"
)

// FuzzParseTraceID is the canonicalising round-trip oracle for the trace
// IDs clients pass to /debug/flightrecorder?trace=: whatever ParseTraceID
// accepts is a nonzero ID whose String form parses back to it, and the
// input differs from that form only in leading zeros and hex case.
func FuzzParseTraceID(f *testing.F) {
	for _, seed := range []string{
		"0000000000000001", "a", "DEAD", "ffffffffffffffff", "0",
		"", "12345678901234567", "-1", "+1", "0x1", "1_0", " 1", "1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		id, err := ParseTraceID(s)
		if err != nil {
			return
		}
		if id == 0 {
			t.Fatalf("ParseTraceID(%q) accepted the reserved zero ID", s)
		}
		canon := id.String()
		back, err := ParseTraceID(canon)
		if err != nil || back != id {
			t.Fatalf("ParseTraceID(%q) = %v, %v; want %v", canon, back, err, id)
		}
		if !strings.EqualFold(strings.TrimLeft(s, "0"), strings.TrimLeft(canon, "0")) {
			t.Fatalf("ParseTraceID accepted %q as %s: not the same hex digits", s, canon)
		}
	})
}
