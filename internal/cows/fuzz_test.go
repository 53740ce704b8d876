package cows

import (
	"testing"
	"unicode"
	"unicode/utf8"
)

// FuzzParse checks two properties over arbitrary inputs: the parser
// never panics, and for accepted inputs the print→reparse round trip
// converges to the same canonical term.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"0",
		"P.T!<>",
		"P.T?<>.P.E!<>",
		"P.T!<> | P.T?<>.P.E!<> | P.E?<>",
		"P.a?<>.0 + P.b?<>.0",
		"*[x:var] P.G?<$x>.[k:kill][sys:name](sys.c!<> | sys.c?<>.(kill(k) | {|P.b!<$x>|}))",
		"[z:var] P1.S2?<$z>.P1.T1!<>",
		"P.j!<u(a,b)>",
		"kill(k)",
		"{|P.a!<>|}",
		"[x] P.T?<$x,$x>.0",
		"((((P.a!<>))))",
		"P..!<>",
		"[:var] 0",
		"+",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		printed := String(s)
		re, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %q -> %q: %v", src, printed, err)
		}
		if Canon(s) != Canon(re) {
			t.Fatalf("round trip changed term: %q -> %q", src, printed)
		}
	})
}

// FuzzStepTerminates checks the derivation engine never panics and
// always terminates on parseable terms (bounded by construction: Step is
// one derivation, not a closure).
func FuzzStepTerminates(f *testing.F) {
	for _, s := range []string{
		"P.T!<> | P.T?<>.0",
		"*P.T?<>.P.T!<> | P.T!<>",
		"[k:kill](kill(k) | P.a!<>)",
		"[x:var](P.r?<$x>.P.s!<$x>) | P.r!<v>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		e := NewEngine()
		ts, err := e.Step(s)
		if err != nil {
			return // unbound variables etc. are legitimate errors
		}
		for _, tr := range ts {
			_ = Canon(tr.Next)
			_ = tr.Label.String()
		}
	})
}

// referenceScan is the lexer as it stood before the token table: a
// map of one-character tokens built per call, and single bytes passed
// to unicode.IsLetter. FuzzLexerDifferential holds the table-driven
// scan to it.
func referenceScan(l *lexer) token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}
	}
	start := l.pos
	c := l.src[l.pos]
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch {
	case two == "{|":
		l.pos += 2
		return token{kind: tokLProt, text: two, pos: start}
	case two == "|}":
		l.pos += 2
		return token{kind: tokRProt, text: two, pos: start}
	}
	single := map[byte]tokKind{
		'*': tokStar, '|': tokPipe, '+': tokPlus, '.': tokDot, '!': tokBang,
		'?': tokQuest, '<': tokLT, '>': tokGT, '[': tokLBrak, ']': tokRBrak,
		'(': tokLParen, ')': tokRParen, ',': tokComma, ':': tokColon, '$': tokDollar,
	}
	if k, ok := single[c]; ok {
		l.pos++
		return token{kind: k, text: string(c), pos: start}
	}
	if c == '\'' {
		end := l.pos + 1
		for end < len(l.src) && l.src[end] != '\'' && l.src[end] != '\n' {
			end++
		}
		if end >= len(l.src) || l.src[end] != '\'' {
			return token{kind: tokEOF, text: "unterminated quote", pos: start}
		}
		text := l.src[l.pos+1 : end]
		l.pos = end + 1
		return token{kind: tokIdent, text: text, pos: start}
	}
	if c == '0' && (l.pos+1 >= len(l.src) || !isIdentByte(l.src[l.pos+1])) {
		l.pos++
		return token{kind: tokZero, text: "0", pos: start}
	}
	if unicode.IsLetter(rune(c)) || c == '_' || (c >= '0' && c <= '9') {
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}
	}
	l.pos++
	return token{kind: tokEOF, text: string(c), pos: start}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// FuzzLexerDifferential requires Parse to agree with the parser driven
// by referenceScan: the same accept/reject verdict and an equal Canon
// on every input, and the same error text on ASCII input. Non-ASCII
// input is where the reference lexer is wrong — it reads a Latin-1
// letter byte as a zero-width identifier and takes any other high byte
// for the end of input — so there Parse may reject what the reference
// accepted (trailing high bytes), but never the converse.
func FuzzLexerDifferential(f *testing.F) {
	for _, s := range []string{
		"0",
		"P.T!<> | P.T?<>.P.E!<> | P.E?<>",
		"*[x:var] P.G?<$x>.[k:kill][sys:name](sys.c!<> | sys.c?<>.(kill(k) | {|P.b!<$x>|}))",
		"P.j!<u(a,b)> // comment é\n| P.k!<'T1+T2'>",
		"P.T!<'-'> | P.J!<'unterminated>",
		"P.T!<> @",
		"P.T!<é>",
		"P.é!<>",
		"0 \x80",
		"0 \xd7\x90",
		"kill(k) | [k] 0",
		"P.a?<0>.0 + P.b?<x0_y-z~>.0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, gotErr := Parse(src)
		want, wantErr := parseFrom(&lexer{src: src, scanWith: func(src string, pos int) (token, int) {
			l := lexer{src: src, pos: pos}
			return referenceScan(&l), l.pos
		}})
		ascii := isASCII(src)
		switch {
		case gotErr == nil && wantErr == nil:
			if Canon(got) != Canon(want) {
				t.Fatalf("%q: Canon %q, reference %q", src, Canon(got), Canon(want))
			}
		case gotErr != nil && wantErr != nil:
			if ascii && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: error %q, reference %q", src, gotErr, wantErr)
			}
		case gotErr == nil:
			t.Fatalf("%q: accepted, reference rejected: %v", src, wantErr)
		case ascii:
			t.Fatalf("%q: rejected (%v), reference accepted", src, gotErr)
		}
	})
}
