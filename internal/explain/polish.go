package explain

import (
	"strings"
)

// RulePolisher is the offline stand-in for the paper's few-shot LLM
// "polishing model": it improves surface fluency without touching content.
// The substitution is documented in ARCHITECTURE.md "Substitutions";
// polishing only affects the user study, never verification.
type RulePolisher struct{}

// Polish normalizes whitespace, repairs duplicated connectives, fixes
// article agreement for the common patterns the generator emits, and
// capitalizes sentence starts.
func (RulePolisher) Polish(text string) string {
	out := strings.Join(strings.Fields(text), " ")
	replacements := [][2]string{
		{", , ", ", "},
		{" , ", ", "},
		{". .", "."},
		{"..", "."},
		{"the the ", "the "},
		{"is is ", "is "},
		{"for for ", "for "},
		{"a one", "one"},
		{" in total in total", " in total"},
	}
	for _, r := range replacements {
		out = strings.ReplaceAll(out, r[0], r[1])
	}
	// Sentence-initial capitalization after ". ".
	var b strings.Builder
	capNext := true
	for i := 0; i < len(out); i++ {
		c := out[i]
		if capNext && c >= 'a' && c <= 'z' {
			c = c - 'a' + 'A'
			capNext = false
		} else if c != ' ' && c != '.' {
			capNext = false
		}
		if c == '.' {
			capNext = true
		}
		b.WriteByte(c)
	}
	out = b.String()
	if !strings.HasSuffix(out, ".") {
		out += "."
	}
	return out
}
