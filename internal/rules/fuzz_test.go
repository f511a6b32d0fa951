package rules

import "testing"

// FuzzParse checks that the parser never panics and that printing is a
// fixed point after one reparse: Parse(String(Parse(src))) prints the same
// text. The third seed is a minimized input where a Go-quoted control
// character ("\x19") used to reparse as the letters "x19".
func FuzzParse(f *testing.F) {
	f.Add(FarmRuleSource)
	f.Add(PipeRuleSource)
	f.Add("rule\"\x19\"when$0:A()then$0.A()end")
	f.Add(`rule "esc \x00\n\t\"\\ é" when $b : B( name == "é\x7f" ) then log("\U0001F600"); end`)
	f.Fuzz(func(t *testing.T, src string) {
		rs, err := Parse(src)
		if err != nil {
			return
		}
		text := rs.String()
		rs2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse of String() failed: %v\n%s", err, text)
		}
		if got := rs2.String(); got != text {
			t.Fatalf("String() is not stable after one reparse:\n%s\n---\n%s", text, got)
		}
	})
}
