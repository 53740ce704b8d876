package cows

import (
	"fmt"
	"strings"
)

// LabelKind distinguishes the transition labels the closed-system
// semantics produces: communications (synchronizations) and executed
// kills.
type LabelKind int

const (
	// LComm is a communication p·o(v̄) between an invoke and a
	// matching request.
	LComm LabelKind = iota
	// LKill is an executed kill signal, the paper's † label.
	LKill
)

// Label is a transition label of the COWS labeled transition system.
//
// For LComm labels, Partner and Op identify the endpoint in display form
// (private names are shown with their source spelling, e.g. "sys", as in
// the paper's figures) and Args carries the ground values communicated.
// For LKill labels, KillLabel names the killer label that fired.
type Label struct {
	Kind      LabelKind
	Partner   string
	Op        string
	Args      []string
	KillLabel string
}

// CommLabel builds a communication label, mainly for tests and
// expectations.
func CommLabel(partner, op string, args ...string) Label {
	return Label{Kind: LComm, Partner: partner, Op: op, Args: args}
}

// KillLabelOf builds an executed-kill label.
func KillLabelOf(k string) Label {
	return Label{Kind: LKill, KillLabel: k}
}

// Endpoint renders "partner.op"; empty for kill labels.
func (l Label) Endpoint() string {
	if l.Kind != LComm {
		return ""
	}
	return l.Partner + "." + l.Op
}

// String renders the label as in the paper: "P.T01", "P.S3(msg1)" when
// values are communicated, or "†k" for kills.
func (l Label) String() string {
	switch l.Kind {
	case LComm:
		if len(l.Args) == 0 {
			return l.Endpoint()
		}
		return fmt.Sprintf("%s(%s)", l.Endpoint(), strings.Join(l.Args, ","))
	case LKill:
		return "†" + l.KillLabel
	default:
		return fmt.Sprintf("label(%d)", int(l.Kind))
	}
}

// Key returns a canonical comparable form of the label including values,
// used for deduplication and deterministic ordering.
func (l Label) Key() string { return l.String() }

// Origins decodes the set of origin tasks carried by the label's values.
// The BPMN encoder passes token provenance as the single argument of
// every token-passing communication; Origins flattens all arguments'
// set encodings (see SetValue) into one sorted element list.
func (l Label) Origins() []string {
	var all []string
	for _, a := range l.Args {
		all = append(all, SetElems(a)...)
	}
	if len(all) == 0 {
		return nil
	}
	return SetElems(SetValue(all...))
}

// Transition is one step of the labeled transition system: a label and
// the successor service.
type Transition struct {
	Label Label
	Next  Service

	canon string // Canon(Next), set by Engine.Step
}

// NextCanon returns the canonical form of the successor, Canon(t.Next),
// as Engine.Step computed it. It is empty for a Transition built
// elsewhere.
func (t Transition) NextCanon() string { return t.canon }
