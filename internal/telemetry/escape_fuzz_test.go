package telemetry

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// unescapeLabel parses the quoted label value at the start of s under the
// Prometheus text-exposition rules (only \\, \" and \n are escapes) and
// returns the value and the rest of s after the closing quote.
func unescapeLabel(t *testing.T, s string) (value, rest string) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), s[i+1:]
		case '\\':
			if i+1 == len(s) {
				t.Fatalf("trailing backslash in %q", s)
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				t.Fatalf("invalid escape \\%c in %q", s[i], s)
			}
		default:
			b.WriteByte(c)
		}
	}
	t.Fatalf("unterminated label value in %q", s)
	return "", ""
}

// FuzzEscapeLabel renders a one-label sample line for any valid UTF-8
// value and checks it against the exposition grammar: no raw newline,
// every backslash starts one of the three escapes, and unescaping the
// value gives the input back.
func FuzzEscapeLabel(f *testing.F) {
	for _, v := range []string{"", "plain", `a\b`, `say "hi"`, "two\nlines", `\n`, `\\"`, "é\\\n\"ß", "\r\t"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if !utf8.ValidString(v) {
			return
		}
		line := "m" + renderLabels([]Label{{Key: "k", Value: v}}) + " 1"
		if strings.Contains(line, "\n") {
			t.Fatalf("raw newline in %q", line)
		}
		const prefix = `m{k="`
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("line %q does not start with %q", line, prefix)
		}
		got, rest := unescapeLabel(t, line[len(prefix):])
		if got != v {
			t.Fatalf("value %q rendered as %q, unescapes to %q", v, line, got)
		}
		if rest != "} 1" {
			t.Fatalf("line %q continues %q after the value", line, rest)
		}
	})
}
