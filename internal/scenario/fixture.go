// Package scenario implements the declarative purpose-test framework:
// JSON fixtures pairing a BPMN process, a policy fragment, and annotated
// audit trails that declare both the expected verdict and the expected
// first deviation. The runner (Run) replays every trail through the
// interpreter and the dense compiled automaton, requires byte-identical
// reports from both, and accumulates DFA state/edge coverage so CI can
// gate on how much of each purpose's behaviour space the corpus
// actually visits.
//
// The paper validates purpose control against a single hospital process
// (Figure 4); this package is how the repo grows "as many scenarios as
// you can imagine" without each domain hand-writing a Go test. A fixture
// is one *.scenario.json file; `purposectl test ./scenarios/...` runs a
// corpus.
package scenario

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/bpmn"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/policy"
)

// Ext is the fixture file suffix Discover looks for.
const Ext = ".scenario.json"

// Fixture is one declarative purpose-test: a process, the policy
// fragment it runs under, and annotated trails.
type Fixture struct {
	// Name identifies the fixture in runner output; conventionally the
	// file basename without the .scenario.json suffix.
	Name string `json:"name"`
	// Description says what the fixture exercises (OR-gateways, retry
	// paths, strict failure semantics, ...). Shown with -v.
	Description string `json:"description,omitempty"`
	// Process is the inline BPMN interchange spec. Exactly one of
	// Process and ProcessFile must be set.
	Process *bpmn.Spec `json:"process,omitempty"`
	// ProcessFile names a .json (interchange) or .bpmn/.xml (OMG XML)
	// process file, relative to the fixture's directory.
	ProcessFile string `json:"process_file,omitempty"`
	// CaseCodes are the case-number prefixes bound to the process
	// (Registry.Register); "IC" makes case "IC-1" replay this purpose.
	CaseCodes []string `json:"case_codes"`
	// Policy is a policy-file fragment, one directive per element
	// (internal/policy syntax: "role Senior : Junior", "permit ...").
	// The role hierarchy feeds the checkers; full fixtures may also
	// declare permits for documentation value.
	Policy []string `json:"policy,omitempty"`
	// Checker tunes analysis knobs for every trail in the fixture.
	Checker *CheckerSpec `json:"checker,omitempty"`
	// AllowFallback accepts the compiled engines falling back to the
	// interpreter (e.g. a configuration cap making the purpose
	// non-compilable). Default false: a silent fallback would let the
	// "both engines agree" claim degenerate into the interpreter
	// agreeing with itself.
	AllowFallback bool `json:"allow_fallback,omitempty"`
	// Trails are the annotated replays.
	Trails []TrailSpec `json:"trails"`

	// Path is the file the fixture was loaded from (set by Load).
	Path string `json:"-"`
}

// CheckerSpec overrides core.Checker knobs for a fixture.
type CheckerSpec struct {
	// StrictFailureTask defaults to true (the repo-wide default);
	// fixtures probing the paper's laxer line-10 semantics set false.
	StrictFailureTask *bool `json:"strict_failure_task,omitempty"`
	DisableAbsorption bool  `json:"disable_absorption,omitempty"`
	MaxConfigurations int   `json:"max_configurations,omitempty"`
	MaxSilentDepth    int   `json:"max_silent_depth,omitempty"`
}

// TrailSpec is one annotated replay: a case's entries plus the verdict
// and first-deviation the engines must produce.
type TrailSpec struct {
	Name string `json:"name"`
	// Case is the case identifier replayed; its prefix before '-' must
	// be one of the fixture's case codes, unless the trail deliberately
	// exercises the unknown-purpose path.
	Case    string      `json:"case"`
	Entries []EntrySpec `json:"entries"`
	Expect  Expectation `json:"expect"`
}

// EntrySpec is the JSON form of one audit entry.
type EntrySpec struct {
	// Time is the paper's 12-digit layout (200601021504) or RFC 3339.
	Time string `json:"time"`
	User string `json:"user"`
	Role string `json:"role"`
	// Action defaults to "access" — fixtures asserting replay semantics
	// rarely care which CRUD verb was logged.
	Action string `json:"action,omitempty"`
	// Object is the accessed object in policy syntax (e.g.
	// "/EPR/Bob/MedicalHistory"); empty entries replay fine, the object
	// only matters to object-scoped audits.
	Object string `json:"object,omitempty"`
	Task   string `json:"task"`
	// Case overrides the trail's case for this entry (noise entries
	// from other cases are legal in an audit trail).
	Case string `json:"case,omitempty"`
	// Status is "success" (default) or "failure".
	Status string `json:"status,omitempty"`
}

// Expectation declares the verdict a trail must produce.
type Expectation struct {
	// Verdict is "compliant", "violation" or "indeterminate".
	Verdict string `json:"verdict"`
	// Pending, when set, additionally asserts Report.Pending — whether
	// a compliant case is mid-flight or ran to completion.
	Pending *bool `json:"pending,omitempty"`
	// Deviation asserts the first-deviation account for violation and
	// indeterminate verdicts.
	Deviation *DeviationSpec `json:"deviation,omitempty"`
}

// DeviationSpec pins the expected Explanation fields.
type DeviationSpec struct {
	// Entry is the expected Explanation.EntryIndex (-1 when no single
	// entry is to blame, e.g. unknown purpose).
	Entry int `json:"entry"`
	// Task, when non-empty, is the expected diverging task.
	Task string `json:"task,omitempty"`
	// Class, when non-empty, is the expected nearest-miss class (the
	// core.Miss* constants, e.g. "wrong-role", "out-of-order").
	Class string `json:"class,omitempty"`
}

var verdicts = map[string]core.Outcome{
	"compliant":     core.OutcomeCompliant,
	"violation":     core.OutcomeViolation,
	"indeterminate": core.OutcomeIndeterminate,
}

// Load reads and validates one fixture file. The JSON is strict:
// unknown fields are errors, so a typoed "expct" key cannot silently
// turn an assertion off.
func Load(path string) (*Fixture, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var fx Fixture
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fx); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario %s: trailing data after the fixture object", path)
	}
	fx.Path = path
	if err := fx.validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", path, err)
	}
	return &fx, nil
}

// validate enforces the structural rules that Run would otherwise trip
// over mid-replay, so authoring errors surface with the field name.
func (fx *Fixture) validate() error {
	if fx.Name == "" {
		return fmt.Errorf("missing name")
	}
	if (fx.Process == nil) == (fx.ProcessFile == "") {
		return fmt.Errorf("fixture %q: want exactly one of process / process_file", fx.Name)
	}
	if len(fx.CaseCodes) == 0 {
		return fmt.Errorf("fixture %q: no case_codes", fx.Name)
	}
	for _, c := range fx.CaseCodes {
		if c == "" || strings.ContainsRune(c, '-') {
			return fmt.Errorf("fixture %q: bad case code %q (the prefix before '-')", fx.Name, c)
		}
	}
	if len(fx.Trails) == 0 {
		return fmt.Errorf("fixture %q: no trails", fx.Name)
	}
	seen := map[string]bool{}
	for i, tr := range fx.Trails {
		where := fmt.Sprintf("fixture %q trail %d (%s)", fx.Name, i, tr.Name)
		if tr.Name == "" {
			return fmt.Errorf("fixture %q trail %d: missing name", fx.Name, i)
		}
		if seen[tr.Name] {
			return fmt.Errorf("%s: duplicate trail name", where)
		}
		seen[tr.Name] = true
		if tr.Case == "" {
			return fmt.Errorf("%s: missing case", where)
		}
		if len(tr.Entries) == 0 {
			return fmt.Errorf("%s: no entries", where)
		}
		for j, e := range tr.Entries {
			if e.Time == "" || e.Role == "" || e.Task == "" {
				return fmt.Errorf("%s entry %d: time, role and task are required", where, j)
			}
			if e.Status != "" {
				if _, err := audit.ParseStatus(e.Status); err != nil {
					return fmt.Errorf("%s entry %d: %w", where, j, err)
				}
			}
		}
		if _, ok := verdicts[tr.Expect.Verdict]; !ok {
			return fmt.Errorf("%s: verdict %q (want compliant, violation or indeterminate)", where, tr.Expect.Verdict)
		}
		if tr.Expect.Verdict == "compliant" && tr.Expect.Deviation != nil {
			return fmt.Errorf("%s: a compliant trail cannot expect a deviation", where)
		}
		if d := tr.Expect.Deviation; d != nil && d.Entry < -1 {
			return fmt.Errorf("%s: deviation entry %d", where, d.Entry)
		}
	}
	return nil
}

// process materializes the fixture's BPMN process, resolving
// ProcessFile relative to the fixture's directory.
func (fx *Fixture) process() (*bpmn.Process, error) {
	if fx.Process != nil {
		return bpmn.FromSpec(*fx.Process)
	}
	file := fx.ProcessFile
	if !filepath.IsAbs(file) && fx.Path != "" {
		file = filepath.Join(filepath.Dir(fx.Path), file)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(file, ".bpmn") || strings.HasSuffix(file, ".xml") {
		return bpmn.DecodeXML(f)
	}
	return bpmn.DecodeJSON(f)
}

// policyOf parses the fixture's policy fragment; a fixture with no
// policy lines gets exact role matching (nil hierarchy).
func (fx *Fixture) policyOf() (*policy.Policy, error) {
	if len(fx.Policy) == 0 {
		return nil, nil
	}
	return policy.ParsePolicyString(strings.Join(fx.Policy, "\n"))
}

// trail materializes one trail spec into chronologically sorted audit
// entries.
func (tr *TrailSpec) trail() (*audit.Trail, error) {
	entries := make([]audit.Entry, 0, len(tr.Entries))
	for j, es := range tr.Entries {
		t, err := cli.ParseTime(es.Time)
		if err != nil {
			return nil, fmt.Errorf("trail %s entry %d: %w", tr.Name, j, err)
		}
		e := audit.Entry{
			User:   es.User,
			Role:   es.Role,
			Action: es.Action,
			Task:   es.Task,
			Case:   es.Case,
			Time:   t,
		}
		if e.Action == "" {
			e.Action = "access"
		}
		if e.Case == "" {
			e.Case = tr.Case
		}
		if es.Object != "" {
			obj, err := policy.ParseObject(es.Object)
			if err != nil {
				return nil, fmt.Errorf("trail %s entry %d: %w", tr.Name, j, err)
			}
			e.Object = obj
		}
		if es.Status != "" {
			st, err := audit.ParseStatus(es.Status)
			if err != nil {
				return nil, fmt.Errorf("trail %s entry %d: %w", tr.Name, j, err)
			}
			e.Status = st
		}
		entries = append(entries, e)
	}
	return audit.NewTrail(entries), nil
}

// Discover expands runner arguments into a sorted list of fixture
// files. Each argument is a fixture file, a directory, or a Go-style
// recursive pattern dir/... — all *.scenario.json files under it.
func Discover(args []string) ([]string, error) {
	var files []string
	seen := map[string]bool{}
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			files = append(files, p)
		}
	}
	for _, arg := range args {
		root, recursive := strings.CutSuffix(arg, "/...")
		if root == "" {
			root = "."
		}
		info, err := os.Stat(root)
		if err != nil {
			return nil, err
		}
		switch {
		case !info.IsDir():
			if recursive {
				return nil, fmt.Errorf("scenario: %s: /... wants a directory", arg)
			}
			add(root)
		default:
			err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					if !recursive && p != root {
						return fs.SkipDir
					}
					return nil
				}
				if strings.HasSuffix(p, Ext) {
					add(p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("scenario: no %s files under %s", Ext, strings.Join(args, " "))
	}
	return files, nil
}
