package cows

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Engine derives the transitions of COWS services under the closed-system
// operational semantics: the observable steps of a complete service are
// communications between its own invoke and request activities, plus
// executed kill signals (which take priority, as in COWS).
//
// An Engine carries a freshness counter used to alpha-rename bound
// identifiers when replications unfold; the counter is atomic and
// derivation never mutates services, so an Engine is safe for concurrent
// use.
type Engine struct {
	fresh atomic.Int64
}

// NewEngine returns a ready-to-use derivation engine.
func NewEngine() *Engine { return &Engine{} }

// Step returns the outgoing transitions of s, deterministically ordered
// by (label, successor) and deduplicated. Successor services are
// Normalized, and each transition carries its successor's canonical form
// (NextCanon). If any kill signal is executable, only kill transitions
// are returned (kill priority).
func (e *Engine) Step(s Service) ([]Transition, error) {
	var p unfoldPlan
	if err := p.plan(s); err != nil {
		return nil, err
	}
	exposed := e.expose(s, &p)
	sc := &scanner{}
	// The walk appends to these in place; every path it keeps is cloned.
	sc.scan(exposed, make([]int, 0, 16), make([]scopeRef, 0, 8))
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
				Next:  Normalize(next),
			})
		}
		return dedupSort(out), nil
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
				Next: Normalize(next),
			})
		}
	}
	return dedupSort(out), nil
}

// expose unfolds the replications in active position that plan p
// selects: *s becomes s' | *s with s' an alpha-fresh copy, itself
// exposed in full. One unfolding per step suffices for services where a
// single replica never needs to synchronize with a second replica of
// itself within one transition, which holds for all BPMN encodings
// produced by internal/encode.
//
// A replication the plan leaves folded could only contribute a copy
// none of whose activities fires in this step; Normalize would absorb
// that copy again by s | *s ≡ *s, so leaving it out gives the same
// successors. Subtrees without an unfolding are shared, not rebuilt.
func (e *Engine) expose(s Service, p *unfoldPlan) Service {
	switch t := s.(type) {
	case *Par:
		var kids []Service
		for i, k := range t.Kids {
			nk := e.expose(k, p)
			if nk != k && kids == nil {
				kids = make([]Service, len(t.Kids))
				copy(kids, t.Kids[:i])
			}
			if kids != nil {
				kids[i] = nk
			}
		}
		if kids == nil {
			return t
		}
		return &Par{Kids: kids}
	case *Scope:
		if body := e.expose(t.Body, p); body != t.Body {
			return &Scope{Kind: t.Kind, Ident: t.Ident, Body: body}
		}
		return t
	case *Protect:
		if body := e.expose(t.Body, p); body != t.Body {
			return &Protect{Body: body}
		}
		return t
	case *Repl:
		if !p.next() {
			return t
		}
		all := p.all
		p.all = true // a copy is exposed in full
		copyBody := e.expose(freshen(t.Body, &e.fresh), p)
		p.all = all
		return &Par{Kids: []Service{copyBody, t}}
	default:
		return s
	}
}

//
// Unfolding plan: which replications a step needs to unfold.
//

// spelled is an invoke or request in active position, outside
// replications (repl = -1) or in the body of the repl-th replication.
type spelled struct {
	partner, op string // raw spellings
	repl        int
}

// spelledBy reports whether some activity in as has a's spelling.
func spelledBy(as []spelled, a spelled) bool {
	for _, b := range as {
		if b.partner == a.partner && b.op == a.op {
			return true
		}
	}
	return false
}

// unfoldPlan decides, for each replication in active position outside
// other replications (in depth-first order), whether Step unfolds it.
// The copy of a replication the plan leaves folded is one whose
// activities would not fire: a communication step leaves it untouched
// and a kill step halts it to 0, and either way the successor normalizes
// as if it had never been made.
//
// When no kill is executable, only communications fire, and a
// replication is unfolded when
//
//   - its body has an invoke or request in active position whose raw
//     partner.op spelling is also spelled, with the opposite polarity,
//     by an activity in active position anywhere in the term (its own
//     body and the bodies of the other replications included), or
//   - its body has a replication in active position.
//
// Spellings are compared before privacy resolution and alpha-renaming,
// so a match by key between exposed activities implies a match here: no
// transition is lost.
//
// When a kill is executable somewhere in the fully unfolded term, only
// kills fire (kill priority), and a replication is unfolded when its
// body has a kill, a protection block or a replication in active
// position. Its copy then brings every kill the full unfolding would,
// and a kill's halt keeps every protected block of a copy it always
// kept; a copy without one halts to 0, like its replication.
//
// The plan's walk is also where Step checks that every request's
// pattern variables are bound, for the copies it never makes as for the
// others, in the order the scanner would meet them.
type unfoldPlan struct {
	env      []scopeRef
	invokes  []spelled
	requests []spelled
	repls    []replBody
	repl     int // the replication being walked, or -1
	kill     bool
	err      error

	// Set by plan: the decisions, consumed in order by next, and
	// whether next unfolds everything (inside a copy).
	unfold []bool
	all    bool
}

// replBody records what a replication's body holds in active position.
type replBody struct {
	repl, kill, protect bool
}

func (p *unfoldPlan) plan(s Service) error {
	p.repl = -1
	p.walk(s)
	if p.err != nil {
		return p.err
	}
	p.unfold = make([]bool, len(p.repls))
	for i, r := range p.repls {
		p.unfold[i] = r.repl || p.kill && (r.kill || r.protect)
	}
	if p.kill {
		return nil
	}
	for _, a := range p.invokes {
		if a.repl >= 0 && !p.unfold[a.repl] {
			p.unfold[a.repl] = spelledBy(p.requests, a)
		}
	}
	for _, a := range p.requests {
		if a.repl >= 0 && !p.unfold[a.repl] {
			p.unfold[a.repl] = spelledBy(p.invokes, a)
		}
	}
	return nil
}

// next reports whether the next replication in walk order unfolds.
func (p *unfoldPlan) next() bool {
	if p.all {
		return true
	}
	u := p.unfold[0]
	p.unfold = p.unfold[1:]
	return u
}

// walk visits the active positions of s, descending into replication
// bodies as if they were unfolded, in the scanner's order.
func (p *unfoldPlan) walk(s Service) {
	switch t := s.(type) {
	case *Invoke:
		p.invokes = append(p.invokes, spelled{partner: t.Partner, op: t.Op, repl: p.repl})
	case *Request:
		p.request(t)
	case *Choice:
		for _, b := range t.Branches {
			p.request(b)
		}
	case *Par:
		for _, k := range t.Kids {
			p.walk(k)
		}
	case *Scope:
		p.env = append(p.env, scopeRef{ident: t.Ident, kind: t.Kind})
		p.walk(t.Body)
		p.env = p.env[:len(p.env)-1]
	case *Protect:
		if p.repl >= 0 {
			p.repls[p.repl].protect = true
		}
		p.walk(t.Body)
	case *Kill:
		if _, ok := lookup(p.env, t.Label, DeclKill); ok {
			p.kill = true
			if p.repl >= 0 {
				p.repls[p.repl].kill = true
			}
		}
	case *Repl:
		if p.repl >= 0 {
			p.repls[p.repl].repl = true
			p.walk(t.Body)
			return
		}
		p.repl = len(p.repls)
		p.repls = append(p.repls, replBody{})
		p.walk(t.Body)
		p.repl = -1
	}
}

func (p *unfoldPlan) request(r *Request) {
	if err := unboundVar(r, p.env); err != nil {
		p.err = err
		return
	}
	p.requests = append(p.requests, spelled{partner: r.Partner, op: r.Op, repl: p.repl})
}

// unboundVar is the engine's well-formedness check: every pattern
// variable of a request in active position must be bound by an
// enclosing var scope. Identifiers print without their alpha-renaming
// suffix, so the message does not depend on how often the request's
// replication was unfolded.
func unboundVar(r *Request, env []scopeRef) error {
	for _, p := range r.Params {
		v, isVar := p.(PVar)
		if !isVar {
			continue
		}
		if _, ok := lookup(env, string(v), DeclVar); !ok {
			return fmt.Errorf("cows: request %s.%s uses unbound variable %q", display(r.Partner), display(r.Op), display(string(v)))
		}
	}
	return nil
}

// display strips the alpha-renaming suffix ("~n") so labels read as in
// the paper's figures regardless of how many unfoldings happened.
func display(ident string) string {
	if i := strings.IndexByte(ident, '~'); i >= 0 {
		return ident[:i]
	}
	return ident
}

//
// Scanning: collect executable atoms (exposed invokes, requests, kills)
// together with the information needed to rewrite the tree when they
// fire.
//

type invokeAtom struct {
	path    []int
	key     string // privacy-resolved endpoint
	partner string
	op      string
	args    []string
}

type requestAtom struct {
	path    []int // node to replace: the Request itself, or its enclosing Choice
	key     string
	partner string
	op      string
	params  []Pattern
	cont    Service
	binders map[string][]int // pattern variable -> path of its binder scope
}

type killAtom struct {
	label     string
	scopePath []int // binder [k] scope
}

// scopeRef resolves an identifier occurrence to its binder.
type scopeRef struct {
	ident string
	kind  DeclKind
	path  []int
}

type scanner struct {
	invokes  []invokeAtom
	requests []requestAtom
	kills    []killAtom
	err      error
}

// scan walks the exposed service. env is the stack of enclosing scope
// declarations (innermost last); path addresses the current node.
func (sc *scanner) scan(s Service, path []int, env []scopeRef) {
	switch t := s.(type) {
	case nil, Nil:
	case *Invoke:
		args := make([]string, len(t.Args))
		for i, a := range t.Args {
			v, ok := a.eval(nil)
			if !ok {
				// Unbound variable argument: the invoke is stuck
				// until an enclosing communication substitutes it.
				return
			}
			args[i] = v
		}
		sc.invokes = append(sc.invokes, invokeAtom{
			path:    clonePath(path),
			key:     endpointKey(t.Partner, t.Op, env),
			partner: t.Partner,
			op:      t.Op,
			args:    args,
		})
	case *Request:
		sc.addRequest(t, path, env)
	case *Choice:
		for _, b := range t.Branches {
			sc.addRequest(b, path, env)
		}
	case *Par:
		for i, k := range t.Kids {
			sc.scan(k, append(path, i), env)
		}
	case *Scope:
		sc.scan(t.Body, append(path, 0), append(env, scopeRef{ident: t.Ident, kind: t.Kind, path: clonePath(path)}))
	case *Protect:
		sc.scan(t.Body, append(path, 0), env)
	case *Kill:
		ref, ok := lookup(env, t.Label, DeclKill)
		if !ok {
			// Free killer label: stuck (cannot be delimited).
			return
		}
		sc.kills = append(sc.kills, killAtom{label: t.Label, scopePath: ref.path})
	case *Repl:
		// Already represented by its exposed unfolding; skip.
		_ = t
	}
}

func (sc *scanner) addRequest(r *Request, path []int, env []scopeRef) {
	if err := unboundVar(r, env); err != nil {
		sc.err = err
		return
	}
	var binders map[string][]int
	for _, p := range r.Params {
		if v, isVar := p.(PVar); isVar {
			if binders == nil {
				binders = map[string][]int{}
			}
			ref, _ := lookup(env, string(v), DeclVar)
			binders[string(v)] = ref.path
		}
	}
	sc.requests = append(sc.requests, requestAtom{
		path:    clonePath(path),
		key:     endpointKey(r.Partner, r.Op, env),
		partner: r.Partner,
		op:      r.Op,
		params:  r.Params,
		cont:    r.Cont,
		binders: binders,
	})
}

// endpointKey resolves partner/op privacy: an identifier bound by a
// DeclName scope is qualified with its binder's position, so equal
// spellings in different scopes (e.g. two gateways' private "sys") never
// match each other.
func endpointKey(partner, op string, env []scopeRef) string {
	return resolveIdent(partner, env) + "." + resolveIdent(op, env)
}

func resolveIdent(ident string, env []scopeRef) string {
	if ref, ok := lookup(env, ident, DeclName); ok {
		return ident + "@" + pathString(ref.path)
	}
	return ident
}

// lookup finds the innermost binder of ident with the given kind,
// respecting shadowing across kinds: any closer binder of the same
// ident (of whatever kind) shadows.
func lookup(env []scopeRef, ident string, kind DeclKind) (scopeRef, bool) {
	for i := len(env) - 1; i >= 0; i-- {
		if env[i].ident == ident {
			if env[i].kind == kind {
				return env[i], true
			}
			return scopeRef{}, false
		}
	}
	return scopeRef{}, false
}

func clonePath(p []int) []int {
	out := make([]int, len(p))
	copy(out, p)
	return out
}

func pathString(p []int) string {
	var b []byte
	for i, x := range p {
		if i > 0 {
			b = append(b, '/')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

//
// Rewriting
//

// replaceAt rebuilds s with the node at path transformed by f.
func replaceAt(s Service, path []int, f func(Service) (Service, error)) (Service, error) {
	if len(path) == 0 {
		return f(s)
	}
	idx, rest := path[0], path[1:]
	switch t := s.(type) {
	case *Par:
		if idx < 0 || idx >= len(t.Kids) {
			return nil, fmt.Errorf("cows: path index %d out of range in parallel of %d", idx, len(t.Kids))
		}
		kids := make([]Service, len(t.Kids))
		copy(kids, t.Kids)
		nk, err := replaceAt(kids[idx], rest, f)
		if err != nil {
			return nil, err
		}
		kids[idx] = nk
		return &Par{Kids: kids}, nil
	case *Scope:
		if idx != 0 {
			return nil, fmt.Errorf("cows: invalid path index %d into scope", idx)
		}
		body, err := replaceAt(t.Body, rest, f)
		if err != nil {
			return nil, err
		}
		return &Scope{Kind: t.Kind, Ident: t.Ident, Body: body}, nil
	case *Protect:
		if idx != 0 {
			return nil, fmt.Errorf("cows: invalid path index %d into protect", idx)
		}
		body, err := replaceAt(t.Body, rest, f)
		if err != nil {
			return nil, err
		}
		return &Protect{Body: body}, nil
	default:
		return nil, fmt.Errorf("cows: path descends into non-composite node %T", s)
	}
}

// applyComm rewrites the exposed tree for a communication: the invoke
// becomes 0, the request (or its whole choice) becomes its continuation,
// and every variable bound by the match is substituted throughout its
// binder scope, consuming the scope (the COWS delimitation rule).
func applyComm(s Service, inv invokeAtom, req requestAtom, sigma map[string]string) (Service, error) {
	t, err := replaceAt(s, inv.path, func(Service) (Service, error) { return Nil{}, nil })
	if err != nil {
		return nil, err
	}
	t, err = replaceAt(t, req.path, func(node Service) (Service, error) {
		switch node.(type) {
		case *Request, *Choice:
			return req.cont, nil
		default:
			return nil, fmt.Errorf("cows: request path does not address a request/choice, found %T", node)
		}
	})
	if err != nil {
		return nil, err
	}

	// Dissolve binder scopes deepest-first so ancestor paths stay valid.
	type binding struct {
		ident string
		path  []int
	}
	var binds []binding
	for v := range sigma {
		bp, ok := req.binders[v]
		if !ok {
			return nil, fmt.Errorf("cows: bound variable %q has no recorded binder", v)
		}
		binds = append(binds, binding{ident: v, path: bp})
	}
	sort.Slice(binds, func(i, j int) bool { return len(binds[i].path) > len(binds[j].path) })
	for _, b := range binds {
		val := sigma[b.ident]
		t, err = replaceAt(t, b.path, func(node Service) (Service, error) {
			scope, ok := node.(*Scope)
			if !ok || scope.Kind != DeclVar || scope.Ident != b.ident {
				return nil, fmt.Errorf("cows: binder path for %q does not address its scope", b.ident)
			}
			return subst(scope.Body, map[string]string{b.ident: val}), nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// applyKill rewrites the exposed tree for an executed kill: everything
// unprotected inside the killer label's scope is terminated.
func applyKill(s Service, k killAtom) (Service, error) {
	return replaceAt(s, k.scopePath, func(node Service) (Service, error) {
		scope, ok := node.(*Scope)
		if !ok || scope.Kind != DeclKill || scope.Ident != k.label {
			return nil, fmt.Errorf("cows: kill scope path for %q does not address its scope", k.label)
		}
		body := halt(scope.Body)
		if identOccurs(body, k.label) {
			return &Scope{Kind: DeclKill, Ident: k.label, Body: body}, nil
		}
		return body, nil
	})
}

// dedupSort orders transitions by label key, then by the successor's
// canonical form, drops repeats, and records each successor's canonical
// form on its transition.
func dedupSort(ts []Transition) []Transition {
	type keyed struct {
		key string // label key, NUL, successor canon
		t   Transition
	}
	ks := make([]keyed, len(ts))
	for i, t := range ts {
		label := t.Label.Key()
		key := label + "\x00" + Canon(t.Next)
		t.canon = key[len(label)+1:]
		ks[i] = keyed{key: key, t: t}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := ts[:0]
	for i, k := range ks {
		if i > 0 && k.key == ks[i-1].key {
			continue
		}
		out = append(out, k.t)
	}
	return out
}
