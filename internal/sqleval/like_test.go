package sqleval

import (
	"strings"
	"testing"
)

// referenceLike is LIKE as the executor first evaluated it on every row:
// both sides through strings.ToLower, then a byte DP with no folding.
func referenceLike(s, pattern string) bool {
	s, pattern = strings.ToLower(s), strings.ToLower(pattern)
	m, n := len(s), len(pattern)
	dp := make([]bool, m+1)
	dp[0] = true
	for j := 1; j <= n; j++ {
		prevDiag := dp[0]
		dp[0] = dp[0] && pattern[j-1] == '%'
		for i := 1; i <= m; i++ {
			cur := dp[i]
			switch pattern[j-1] {
			case '%':
				dp[i] = dp[i] || dp[i-1]
			case '_':
				dp[i] = prevDiag
			default:
				dp[i] = prevDiag && s[i-1] == pattern[j-1]
			}
			prevDiag = cur
		}
	}
	return dp[m]
}

// FuzzLikeFold requires likeFold on a pattern lowered once to agree with
// referenceLike: ASCII and non-ASCII values, values longer than the DP
// row's stack buffer, invalid UTF-8 and letters such as the Kelvin sign
// whose lower case is ASCII.
func FuzzLikeFold(f *testing.F) {
	long := strings.Repeat("Abc", 30)
	for _, c := range [][2]string{
		{"Tokyo", "T%"}, {"TOKYO", "_oky_"}, {"Boeing 747", "boeing%"}, {"x", "%%"}, {"", "%"}, {"abc", ""},
		{"Côte", "c_te"}, {"CÔTE", "côte"}, {"Côte", "C__te"}, {"k", "K"}, {"K", "k"},
		{"\xffA", "_a"}, {long, "%CABC"}, {long + "é", "%É"}, {"a%b", "A%B"},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, s, pattern string) {
		if got, want := likeFold(s, strings.ToLower(pattern)), referenceLike(s, pattern); got != want {
			t.Fatalf("%q LIKE %q = %v, want %v", s, pattern, got, want)
		}
	})
}
