package cows

import (
	"strings"
	"testing"
)

func TestParseRoundTrips(t *testing.T) {
	// Parse → String → Parse must converge; Canon must agree across
	// both parses.
	sources := []string{
		`0`,
		`P.T!<>`,
		`P.T?<>`,
		`P.T?<>.P.E!<>`,
		`P.T!<> | P.T?<>.P.E!<> | P.E?<>`,
		`P.a?<>.0 + P.b?<>.0`,
		`P.a?<>.P.x!<> + P.b?<>.P.y!<> + P.c?<>.0`,
		`*P.T?<>.P.E!<>`,
		`[x:var] P.T?<$x>.P.E!<$x>`,
		`[sys:name](sys.go!<> | sys.go?<>.0)`,
		`[k:kill](kill(k) | {|P.b!<>|})`,
		`P.T!<a,b,c>`,
		`P.j!<u(a,b)>`,
		`[z:var] P1.S2?<$z>.P1.T1!<>`,
		`{|P.a!<> | P.b?<>.0|}`,
		`*[x:var] P.G?<$x>.[k:kill][sys:name](sys.c1!<> | sys.c1?<>.(kill(k) | {|P.b1!<$x>|}))`,
		`(P.a?<>.0 + P.b?<>.0) | P.a!<>`,
	}
	for _, src := range sources {
		s1, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		printed := String(s1)
		s2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q (printed %q): %v", src, printed, err)
			continue
		}
		if Canon(s1) != Canon(s2) {
			t.Errorf("round trip changed term: %q -> %q\n canon1 %s\n canon2 %s",
				src, printed, Canon(s1), Canon(s2))
		}
	}
}

func TestParseScopeKindInference(t *testing.T) {
	cases := []struct {
		src  string
		want DeclKind
	}{
		{`[k](kill(k) | P.a!<>)`, DeclKill},
		{`[x] P.T?<$x>.0`, DeclVar},
		{`[x] P.T!<$x>`, DeclVar},
		{`[sys](sys.a!<> | sys.a?<>.0)`, DeclName},
		{`[n] P.a!<>`, DeclName}, // unused: defaults to name
	}
	for _, c := range cases {
		s, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		sc, ok := s.(*Scope)
		if !ok {
			t.Errorf("Parse(%q): not a scope, %T", c.src, s)
			continue
		}
		if sc.Kind != c.want {
			t.Errorf("Parse(%q): inferred %v, want %v", c.src, sc.Kind, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`P.`,
		`P.T`,
		`P.T!`,
		`P.T!<`,
		`P.T!<a`,
		`P.T?<>.`,
		`P.T!<> |`,
		`P.a!<> + P.b?<>.0`, // invoke in choice
		`P.a?<>.0 + P.b!<>`, // invoke as later branch
		`[`,
		`[x`,
		`[x]`,
		`[x:frob] 0`,
		`{|P.a!<>`,
		`kill(`,
		`kill()`,
		`(P.a!<>`,
		`P.T?<$>.0`,
		`P.T!<> extra`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	src := `
		// the classic three-element pipeline
		P.T!<>            // start
		| P.T?<>.P.E!<>   // task
		| P.E?<>          // end
	`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := Canon(s); got != Canon(MustParse(`P.T!<> | P.T?<>.P.E!<> | P.E?<>`)) {
		t.Errorf("comment handling changed term: %s", got)
	}
}

func TestParsePrecedence(t *testing.T) {
	// Prefix binds tighter than choice; parallel is loosest.
	s := MustParse(`P.a?<>.P.x!<> + P.b?<>.0 | P.c!<>`)
	par, ok := s.(*Par)
	if !ok || len(par.Kids) != 2 {
		t.Fatalf("top level should be a 2-ary parallel, got %s", String(s))
	}
	if _, ok := par.Kids[0].(*Choice); !ok {
		t.Fatalf("first kid should be a choice, got %T", par.Kids[0])
	}
	// Continuation does not swallow '+': the branch continuation is
	// just the invoke.
	ch := par.Kids[0].(*Choice)
	if len(ch.Branches) != 2 {
		t.Fatalf("choice has %d branches", len(ch.Branches))
	}
	if _, ok := ch.Branches[0].Cont.(*Invoke); !ok {
		t.Fatalf("branch continuation should be the invoke, got %T", ch.Branches[0].Cont)
	}
}

func TestParseKillAsPartnerName(t *testing.T) {
	// "kill" followed by '.' is an endpoint partner, not the activity.
	s, err := Parse(`kill.op!<>`)
	if err != nil {
		t.Fatal(err)
	}
	inv, ok := s.(*Invoke)
	if !ok || inv.Partner != "kill" || inv.Op != "op" {
		t.Fatalf("got %s", String(s))
	}
}

func TestParseFragmentName(t *testing.T) {
	good := []string{"T01", "GP", "a_b", "x-1", "Radiologist", "p9"}
	for _, n := range good {
		if err := ParseFragmentName(n); err != nil {
			t.Errorf("ParseFragmentName(%q): %v", n, err)
		}
	}
	bad := []string{"", "a~b", "a+b", "a.b", "a b", "é", "[x]"}
	for _, n := range bad {
		if err := ParseFragmentName(n); err == nil {
			t.Errorf("ParseFragmentName(%q) succeeded, want error", n)
		}
	}
}

func TestPrinterParenthesization(t *testing.T) {
	// A choice nested under replication must be parenthesized so it
	// reparses identically.
	s := Replicate(Sum(
		Req("P", "a", nil, Zero()),
		Req("P", "b", nil, Zero()),
	))
	printed := String(s)
	re, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse %q: %v", printed, err)
	}
	if Canon(s) != Canon(re) {
		t.Fatalf("parenthesization broken: %q", printed)
	}
	if !strings.Contains(printed, "(") {
		t.Fatalf("expected parentheses in %q", printed)
	}
}

func TestQuotedAtoms(t *testing.T) {
	// Runtime states carry non-identifier literal values (the empty
	// origin set "-", set values "T1+T2"); print→parse must round-trip
	// them.
	s := Parallel(
		Inv("P", "T", "-"),
		Inv("P", "J", "T1+T2"),
		Req("P", "J", []string{"T1+T2"}, Zero()),
	)
	printed := String(s)
	re, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse %q: %v", printed, err)
	}
	if Canon(s) != Canon(re) {
		t.Fatalf("round trip changed term:\n %s\n %s", Canon(s), Canon(re))
	}
	// Direct quoted syntax.
	q := MustParse(`P.T!<'-'> | P.J!<'a+b'>`)
	if !strings.Contains(String(q), "'-'") {
		t.Fatalf("quoting lost: %s", String(q))
	}
	// Unterminated quote errors.
	if _, err := Parse(`P.T!<'oops>`); err == nil {
		t.Fatalf("unterminated quote accepted")
	}
}

func TestParseNonASCIIErrors(t *testing.T) {
	// A byte >= 0x80 outside a quoted atom or comment is an invalid
	// token whose text is the whole offending rune; the error names it
	// and its offset.
	cases := []struct{ src, want string }{
		{"P.T!<é>", `expected argument at offset 5, found "é"`},
		{"P.é!<>", `expected identifier at offset 2, found "é"`},
		{"é", `unexpected "é" at offset 0`},
		{"P.T!<> | Ω.a!<>", `unexpected "Ω" at offset 9`},
		{"P.T?<$é>.0", `expected identifier at offset 6, found "é"`},
		{"P.T!<> é", `unexpected "é" at offset 7`},
		{"P.T!<> \xd7\x90", `unexpected "א" at offset 7`},
		{"P.T!<> \x80", `unexpected "\x80" at offset 7`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %q, want it to contain %q", c.src, err, c.want)
		}
	}
	// Non-ASCII inside comments and quoted atoms stays legal.
	if _, err := Parse("P.T!<'é'> // ünïcode"); err != nil {
		t.Errorf("quoted/commented non-ASCII rejected: %v", err)
	}
}

// TestLexerZeroAlloc: lexing a term to EOF allocates nothing, every
// token kind included.
func TestLexerZeroAlloc(t *testing.T) {
	src := "*[x:var] GP.S2?<$x>.[k:kill][sys](sys.T02!<> | sys.T02?<>.(kill(k) | {|GP.T02!<$x>|}))" +
		" | GP.J!<u(T1,'T1+T2')> // comment\n | P.a?<0>.0 + P.b?<x0_y-z~>.0 @"
	allocs := testing.AllocsPerRun(100, func() {
		l := lexer{src: src}
		for l.next().kind != tokEOF {
		}
	})
	if allocs != 0 {
		t.Fatalf("lexing allocated %.1f times per run, want 0", allocs)
	}
}
