package faults

import (
	"reflect"
	"testing"
)

// FuzzParse is the round-trip oracle for the fault-plan parser: whatever
// Parse accepts must be a valid plan that String renders back to the same
// plan, and String must be a fixed point of Parse∘String.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "none", "drop=0.1", "drop=0.1,dup=0.05,corrupt=0.01", "delay=0.2:3ms",
		"delay=0:5ms", "drop=0.2,crash=1@4", "crash=0@0,crash=2@7,crash=0@3",
		"drop=NaN", "delay=NaN:1ms", "dup=1e-320", "corrupt=0x1p-3", "delay=1:1h2m3.5s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted an invalid plan: %v", s, err)
		}
		str := p.String()
		p2, err := Parse(str)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not re-parse: %v", s, str, err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("Parse(%q) = %+v, but its String %q re-parses to %+v", s, p, str, p2)
		}
		if again := p2.String(); again != str {
			t.Fatalf("String is not a fixed point: %q then %q", str, again)
		}
	})
}
