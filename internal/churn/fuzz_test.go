package churn

import "testing"

// FuzzParseMode feeds arbitrary -churn strings to the mode parser: it
// must never panic, it must accept exactly the documented spellings and
// map each to its mode, and any other string must come back as an
// error with no mode.
func FuzzParseMode(f *testing.F) {
	spellings := map[string]Mode{
		"": None, "none": None, "no": None,
		"static": Static, "dynamic": Dynamic, "sessions": Sessions,
	}
	for _, s := range []string{"", "none", "no", "static", "dynamic", "sessions", "Dynamic", "no churn"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMode(s)
		want, known := spellings[s]
		switch {
		case err != nil && known:
			t.Fatalf("ParseMode(%q) rejected a documented spelling: %v", s, err)
		case err != nil && m != 0:
			t.Fatalf("ParseMode(%q) failed but returned mode %v", s, m)
		case err == nil && !known:
			t.Fatalf("ParseMode(%q) accepted an undocumented spelling as %v", s, m)
		case err == nil && m != want:
			t.Fatalf("ParseMode(%q) = %v, want %v", s, m, want)
		}
	})
}
