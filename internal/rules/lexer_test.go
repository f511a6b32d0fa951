package rules

import (
	"strings"
	"testing"
)

func kinds(toks []token) []tokKind {
	out := make([]tokKind, len(toks))
	for i, t := range toks {
		out[i] = t.kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, err := lexAll(`rule "X" when $a : B( value < 0.5 ) then end`)
	if err != nil {
		t.Fatal(err)
	}
	want := []tokKind{
		tokIdent, tokString, tokIdent, tokVar, tokColon, tokIdent,
		tokLParen, tokIdent, tokOp, tokNumber, tokRParen, tokIdent, tokIdent,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (%v)", i, got[i], want[i], toks[i])
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lexAll("// line comment\nfoo /* block\ncomment */ bar")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].text != "foo" || toks[1].text != "bar" {
		t.Fatalf("toks = %v", toks)
	}
	if toks[1].line != 3 {
		t.Fatalf("bar on line %d, want 3", toks[1].line)
	}
}

func TestLexUnterminatedComment(t *testing.T) {
	if _, err := lexAll("/* never closed"); err == nil {
		t.Fatal("expected error")
	}
}

func TestLexTwoCharOps(t *testing.T) {
	toks, err := lexAll("<= >= == != && || < > !")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<=", ">=", "==", "!=", "&&", "||", "<", ">", "!"}
	if len(toks) != len(want) {
		t.Fatalf("toks = %v", toks)
	}
	for i, w := range want {
		if toks[i].kind != tokOp || toks[i].text != w {
			t.Fatalf("tok %d = %v, want op %q", i, toks[i], w)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := lexAll("3.14 42 0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"3.14", "42", "0.5"}
	for i, w := range want {
		if toks[i].kind != tokNumber || toks[i].text != w {
			t.Fatalf("tok %d = %v, want number %q", i, toks[i], w)
		}
	}
}

func TestLexDottedPathIsDotToken(t *testing.T) {
	toks, err := lexAll("A.B")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[1].kind != tokDot {
		t.Fatalf("toks = %v", toks)
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := lexAll(`"a\nb\tc\"d"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "a\nb\tc\"d" {
		t.Fatalf("string = %q", toks[0].text)
	}
	// Go's escapes, as the printer writes them with %q.
	toks, err = lexAll(`"\x00\x19\u00e9\\"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "\x00\x19é\\" {
		t.Fatalf("string = %q", toks[0].text)
	}
	if _, err := lexAll(`"\q"`); err == nil {
		t.Fatal("unknown escape accepted")
	}
}

func TestLexUnterminatedString(t *testing.T) {
	if _, err := lexAll(`"never closed`); err == nil {
		t.Fatal("expected error")
	}
}

func TestLexBareDollar(t *testing.T) {
	if _, err := lexAll("$ :"); err == nil {
		t.Fatal("expected error for '$' without name")
	}
}

func TestLexUnexpectedChar(t *testing.T) {
	_, err := lexAll("foo @ bar")
	if err == nil || !strings.Contains(err.Error(), "@") {
		t.Fatalf("err = %v", err)
	}
}

func TestLexLineNumbersInErrors(t *testing.T) {
	_, err := lexAll("ok\nok\n@")
	se, ok := err.(*SyntaxError)
	if !ok || se.Line != 3 {
		t.Fatalf("err = %v", err)
	}
}
