package cows

import (
	"sort"
	"strconv"
	"strings"
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
	for _, s := range stepSeeds {
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

// stepSeeds seed the fuzzers that drive Engine.Step.
var stepSeeds = []string{
	"P.T!<> | P.T?<>.0",
	"*P.T?<>.P.T!<> | P.T!<>",
	"[k:kill](kill(k) | P.a!<>)",
	"[x:var](P.r?<$x>.P.s!<$x>) | P.r!<v>",
}

// FuzzStepDifferential holds Step to referenceStep: the same labels and
// successor canonical forms in the same order, or the same error text.
// Each transition's NextCanon must also be the canonical form of its
// successor.
func FuzzStepDifferential(f *testing.F) {
	for _, s := range stepSeeds {
		f.Add(s)
	}
	for _, s := range []string{
		"*P.r?<$x>.0 | P.s!<>",
		"*[k:kill](kill(k) | {|P.a!<>|}) | P.b!<>",
		"[k:kill](*kill(k) | *{|P.a!<>|})",
		"[k:kill](kill(k) | *{|P.a!<>|} | *P.b!<> | *[s:name]{|s.c!<>|}) | *{|P.d!<>|}",
		"[k:kill](kill(k) | *(*{|P.a!<>|} | P.b?<>.0)) | [j:kill]*[i:kill](kill(i) | kill(j) | {|P.c!<>|})",
		"*[x:name][x:name]P.a!<x> | P.b!<> | P.b?<>.0",
		"*[x:var]P.a?<$x>.P.b!<$x> | *[y:var]P.b?<$y>.0 | P.a!<v> | *P.c!<>",
		"*[s:name](s.o!<> | s.o?<>.P.x!<>) | *P.x?<>.0",
		"*(*P.a!<> | P.b!<>) | P.a?<>.0",
		"*[x:var]P.j?<$x>.[k:kill][sys](sys.l!<> | sys.r!<> | sys.l?<>.(kill(k) | {|P.l!<$x>|}) | sys.r?<>.(kill(k) | {|P.r!<$x>|})) | P.j!<T1>",
		"*[x:name]P.r?<$x>.0 | *[y:var]P.q?<$z>.0 | P.s!<>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		got, gotErr := NewEngine().Step(s)
		want, wantErr := referenceStep(NewEngine(), s)
		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: error %v, reference %v", src, gotErr, wantErr)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d transitions, reference %d", src, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Label.Kind != w.Label.Kind || g.Label.Key() != w.Label.Key() {
				t.Fatalf("%q: transition %d label %s, reference %s", src, i, g.Label, w.Label)
			}
			if wc := referenceCanon(w.Next); g.NextCanon() != wc {
				t.Fatalf("%q: transition %d successor\n %s\nreference\n %s", src, i, g.NextCanon(), wc)
			}
			if c := Canon(g.Next); c != g.NextCanon() {
				t.Fatalf("%q: transition %d NextCanon %s, Canon %s", src, i, g.NextCanon(), c)
			}
		}
	})
}

// FuzzCanonDifferential holds Canon to referenceCanon, byte for byte,
// on parsed terms and on their Normalized forms.
func FuzzCanonDifferential(f *testing.F) {
	for _, s := range stepSeeds {
		f.Add(s)
	}
	for _, s := range []string{
		"P.b!<> | P.a!<> | (P.c?<>.0 + P.a?<>.0)",
		"P.j!<u(b,a,u(d,c))> | [x:var]P.a?<$x,v>.P.b!<$x>",
		"[x][x]P.a!<x> | *[y:var]P.b?<$y>.kill(k)",
		"P.'a|b'!<> | P.a!<> | P.'a'!<>",
		"P.T?<>.P.E!<> | *P.T?<>.P.E!<>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		if got, want := Canon(s), referenceCanon(s); got != want {
			t.Fatalf("%q: Canon\n %s\nreference\n %s", src, got, want)
		}
		n := Normalize(s)
		if got, want := Canon(n), referenceCanon(referenceNormalize(s)); got != want {
			t.Fatalf("%q: normalized Canon\n %s\nreference\n %s", src, got, want)
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

// The reference step engine: the derivation as it stood before
// selective unfolding and append-style canonicalization. Every active
// replication is unfolded on every step, canonical forms are built with
// one strings.Builder per composite part, and Normalize compares full
// canonical strings to absorb unfoldings. FuzzStepDifferential and
// TestExploreMatchesEager hold Step to it.

// referenceStep is Step with every replication unfolded.
func referenceStep(e *Engine, s Service) ([]Transition, error) {
	exposed := referenceExpose(e, s)
	sc := &scanner{}
	sc.scan(exposed, nil, nil)
	if sc.err != nil {
		return nil, sc.err
	}

	var out []Transition
	if len(sc.kills) > 0 {
		for _, k := range sc.kills {
			next, err := applyKill(exposed, k)
			if err != nil {
				return nil, err
			}
			out = append(out, Transition{
				Label: Label{Kind: LKill, KillLabel: display(k.label)},
				Next:  referenceNormalize(next),
			})
		}
		return referenceDedupSort(out), nil
	}

	for _, inv := range sc.invokes {
		for _, req := range sc.requests {
			if inv.key != req.key {
				continue
			}
			sigma, ok := matchParams(req.params, inv.args)
			if !ok {
				continue
			}
			next, err := applyComm(exposed, inv, req, sigma)
			if err != nil {
				return nil, err
			}
			out = append(out, Transition{
				Label: Label{
					Kind:    LComm,
					Partner: display(inv.partner),
					Op:      display(inv.op),
					Args:    inv.args,
				},
				Next: referenceNormalize(next),
			})
		}
	}
	return referenceDedupSort(out), nil
}

// referenceExpose unfolds every replication in active position exactly
// once: *s becomes s' | *s with s' an alpha-fresh copy.
func referenceExpose(e *Engine, s Service) Service {
	switch t := s.(type) {
	case *Par:
		kids := make([]Service, len(t.Kids))
		for i, k := range t.Kids {
			kids[i] = referenceExpose(e, k)
		}
		return &Par{Kids: kids}
	case *Scope:
		return &Scope{Kind: t.Kind, Ident: t.Ident, Body: referenceExpose(e, t.Body)}
	case *Protect:
		return &Protect{Body: referenceExpose(e, t.Body)}
	case *Repl:
		copyBody := freshen(t.Body, &e.fresh)
		return &Par{Kids: []Service{referenceExpose(e, copyBody), t}}
	default:
		return s
	}
}

func referenceDedupSort(ts []Transition) []Transition {
	type keyed struct {
		key string
		t   Transition
	}
	ks := make([]keyed, 0, len(ts))
	for _, t := range ts {
		ks = append(ks, keyed{key: t.Label.Key() + "\x00" + referenceCanon(t.Next), t: t})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := ts[:0]
	var prev string
	for i, k := range ks {
		if i > 0 && k.key == prev {
			continue
		}
		prev = k.key
		out = append(out, k.t)
	}
	return out
}

// referenceNormalize is Normalize with referenceAbsorbUnfoldings.
func referenceNormalize(s Service) Service {
	switch t := s.(type) {
	case nil, Nil:
		return Nil{}
	case *Invoke, *Kill:
		return s
	case *Request:
		return &Request{Partner: t.Partner, Op: t.Op, Params: t.Params, Cont: referenceNormalize(t.Cont)}
	case *Choice:
		branches := make([]*Request, len(t.Branches))
		for i, b := range t.Branches {
			branches[i] = referenceNormalize(b).(*Request)
		}
		return &Choice{Branches: branches}
	case *Par:
		kids := make([]Service, 0, len(t.Kids))
		for _, k := range t.Kids {
			nk := referenceNormalize(k)
			if !IsNil(nk) {
				kids = append(kids, nk)
			}
		}
		kids = referenceAbsorbUnfoldings(kids)
		return Parallel(kids...)
	case *Scope:
		body := referenceNormalize(t.Body)
		if IsNil(body) {
			return Nil{}
		}
		if !identOccurs(body, t.Ident) {
			return body
		}
		return &Scope{Kind: t.Kind, Ident: t.Ident, Body: body}
	case *Protect:
		body := referenceNormalize(t.Body)
		if IsNil(body) {
			return Nil{}
		}
		return &Protect{Body: body}
	case *Repl:
		body := referenceNormalize(t.Body)
		if IsNil(body) {
			return Nil{}
		}
		return &Repl{Body: body}
	default:
		return s
	}
}

// referenceAbsorbUnfoldings canonicalizes every component and every
// replication body and drops the components equal to a body.
func referenceAbsorbUnfoldings(kids []Service) []Service {
	var replCanons []string
	for _, k := range kids {
		if r, ok := k.(*Repl); ok {
			replCanons = append(replCanons, referenceCanon(r.Body))
		}
	}
	if len(replCanons) == 0 {
		return kids
	}
	out := kids[:0]
	for _, k := range kids {
		if _, isRepl := k.(*Repl); !isRepl {
			c := referenceCanon(k)
			absorbed := false
			for _, rc := range replCanons {
				if c == rc {
					absorbed = true
					break
				}
			}
			if absorbed {
				continue
			}
		}
		out = append(out, k)
	}
	return out
}

// referenceCanon is Canon built from one strings.Builder per composite
// part, sorted and joined as strings.
func referenceCanon(s Service) string {
	var b strings.Builder
	referenceCanonInto(&b, s, nil)
	return b.String()
}

func referenceCanonInto(b *strings.Builder, s Service, env []string) {
	switch t := s.(type) {
	case nil, Nil:
		b.WriteString("0")
	case *Invoke:
		b.WriteString(referenceCanonIdent(t.Partner, env))
		b.WriteByte('.')
		b.WriteString(referenceCanonIdent(t.Op, env))
		b.WriteString("!<")
		for i, a := range t.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(referenceCanonExpr(a, env))
		}
		b.WriteByte('>')
	case *Request:
		referenceCanonRequest(b, t, env)
	case *Choice:
		parts := make([]string, len(t.Branches))
		for i, br := range t.Branches {
			var sb strings.Builder
			referenceCanonRequest(&sb, br, env)
			parts[i] = sb.String()
		}
		sort.Strings(parts)
		b.WriteByte('(')
		b.WriteString(strings.Join(parts, "+"))
		b.WriteByte(')')
	case *Par:
		parts := make([]string, len(t.Kids))
		for i, k := range t.Kids {
			var sb strings.Builder
			referenceCanonInto(&sb, k, env)
			parts[i] = sb.String()
		}
		sort.Strings(parts)
		b.WriteByte('(')
		b.WriteString(strings.Join(parts, "|"))
		b.WriteByte(')')
	case *Scope:
		b.WriteByte('[')
		b.WriteString(t.Kind.String())
		b.WriteByte(']')
		referenceCanonInto(b, t.Body, append(env, t.Ident))
	case *Protect:
		b.WriteString("{|")
		referenceCanonInto(b, t.Body, env)
		b.WriteString("|}")
	case *Kill:
		b.WriteString("kill(")
		b.WriteString(referenceCanonIdent(t.Label, env))
		b.WriteByte(')')
	case *Repl:
		b.WriteByte('*')
		referenceCanonInto(b, t.Body, env)
	}
}

func referenceCanonRequest(b *strings.Builder, r *Request, env []string) {
	b.WriteString(referenceCanonIdent(r.Partner, env))
	b.WriteByte('.')
	b.WriteString(referenceCanonIdent(r.Op, env))
	b.WriteString("?<")
	for i, p := range r.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		switch pt := p.(type) {
		case PLit:
			b.WriteString(referenceCanonIdent(string(pt), env))
		case PVar:
			b.WriteByte('$')
			b.WriteString(referenceCanonIdent(string(pt), env))
		}
	}
	b.WriteString(">.")
	referenceCanonInto(b, r.Cont, env)
}

func referenceCanonExpr(e Expr, env []string) string {
	switch t := e.(type) {
	case Lit:
		return referenceCanonIdent(string(t), env)
	case Var:
		return "$" + referenceCanonIdent(string(t), env)
	case *UnionExpr:
		parts := make([]string, len(t.Operands))
		for i, op := range t.Operands {
			parts[i] = referenceCanonExpr(op, env)
		}
		sort.Strings(parts)
		return "u(" + strings.Join(parts, ",") + ")"
	default:
		return "?"
	}
}

func referenceCanonIdent(id string, env []string) string {
	for i := len(env) - 1; i >= 0; i-- {
		if env[i] == id {
			return "@" + strconv.Itoa(len(env)-1-i)
		}
	}
	return id
}

// ReferenceStep exposes referenceStep to the package's external tests.
var ReferenceStep = referenceStep
