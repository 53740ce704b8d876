package encode

// Compiled-automaton artifacts (DESIGN.md §11). A purpose automaton is
// serialized as a single gzip-compressed JSON envelope, versioned and
// content-addressed: the file name is the automaton fingerprint — a
// hash over the canonical COWS term, the compiler version and every
// semantic knob — so a cache directory can hold artifacts for many
// purposes, flag combinations and compiler versions side by side, and
// a loader that computes the expected fingerprint from its own inputs
// can never pick up a stale or mismatched table.

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/automaton"
	"repro/internal/bpmn"
	"repro/internal/lts"
	"repro/internal/policy"
)

// ArtifactMagic identifies the envelope; ArtifactVersion is the
// envelope format version (the table layout itself is versioned by
// automaton.CompilerVersion inside).
const (
	ArtifactMagic   = "purpose-automaton-artifact"
	ArtifactVersion = 1
)

// ErrArtifactMismatch reports an artifact whose identity does not
// match what the loader expected (wrong magic, version, or
// fingerprint). Callers treat it like a cache miss.
var ErrArtifactMismatch = errors.New("encode: automaton artifact mismatch")

// artifactEnvelope is the on-disk JSON shape.
type artifactEnvelope struct {
	Magic       string         `json:"magic"`
	Version     int            `json:"version"`
	Fingerprint string         `json:"fingerprint"`
	Automaton   *automaton.DFA `json:"automaton"`
}

// WriteAutomaton serializes a compiled automaton to w (gzip + JSON).
func WriteAutomaton(w io.Writer, d *automaton.DFA) error {
	zw := gzip.NewWriter(w)
	env := artifactEnvelope{
		Magic:       ArtifactMagic,
		Version:     ArtifactVersion,
		Fingerprint: d.Fingerprint,
		Automaton:   d,
	}
	if err := json.NewEncoder(zw).Encode(&env); err != nil {
		zw.Close()
		return fmt.Errorf("encode automaton: %w", err)
	}
	return zw.Close()
}

// ReadAutomaton deserializes an artifact and validates it (envelope
// identity, then the automaton's own table invariants via Finish).
func ReadAutomaton(r io.Reader) (*automaton.DFA, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: not gzip: %v", ErrArtifactMismatch, err)
	}
	defer zr.Close()
	var env artifactEnvelope
	if err := json.NewDecoder(zr).Decode(&env); err != nil {
		return nil, fmt.Errorf("decode automaton: %w", err)
	}
	if env.Magic != ArtifactMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrArtifactMismatch, env.Magic)
	}
	if env.Version != ArtifactVersion {
		return nil, fmt.Errorf("%w: envelope version %d, want %d", ErrArtifactMismatch, env.Version, ArtifactVersion)
	}
	if env.Automaton == nil {
		return nil, fmt.Errorf("%w: empty automaton", ErrArtifactMismatch)
	}
	if env.Automaton.Fingerprint != env.Fingerprint {
		return nil, fmt.Errorf("%w: envelope fingerprint %.12s != automaton %.12s",
			ErrArtifactMismatch, env.Fingerprint, env.Automaton.Fingerprint)
	}
	if err := env.Automaton.Finish(); err != nil {
		return nil, fmt.Errorf("invalid automaton artifact: %w", err)
	}
	return env.Automaton, nil
}

// ArtifactPath is the content-addressed location of an automaton with
// the given fingerprint inside dir.
func ArtifactPath(dir, fingerprint string) string {
	return filepath.Join(dir, fingerprint+".dfa.json.gz")
}

// SaveAutomaton writes d into dir under its content address
// (temp file + rename, so concurrent writers of the same fingerprint
// are harmless) and returns the final path.
func SaveAutomaton(dir string, d *automaton.DFA) (string, error) {
	if d.Fingerprint == "" {
		return "", errors.New("encode: automaton has no fingerprint")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, ".dfa-*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())
	if err := WriteAutomaton(tmp, d); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	path := ArtifactPath(dir, d.Fingerprint)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, nil
}

// LoadAutomaton loads the artifact with the given fingerprint from
// dir. A missing file returns os.ErrNotExist; a file whose content does
// not carry that fingerprint returns ErrArtifactMismatch.
func LoadAutomaton(dir, fingerprint string) (*automaton.DFA, error) {
	f, err := os.Open(ArtifactPath(dir, fingerprint))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := ReadAutomaton(f)
	if err != nil {
		return nil, err
	}
	if d.Fingerprint != fingerprint {
		return nil, fmt.Errorf("%w: loaded fingerprint %.12s, want %.12s",
			ErrArtifactMismatch, d.Fingerprint, fingerprint)
	}
	return d, nil
}

// CompileInput assembles the automaton compiler input for a process:
// the canonical encoding, the purpose's own observability, the task
// alphabet with pool roles, and the role hierarchy. Flags and caps are
// zero — callers overlay their own before compiling so the fingerprint
// reflects the semantics they will replay with.
func CompileInput(p *bpmn.Process, roles *policy.RoleHierarchy) (automaton.CompileInput, error) {
	initial, err := Encode(p)
	if err != nil {
		return automaton.CompileInput{}, err
	}
	in := automaton.CompileInput{
		Purpose:    p.Name,
		Initial:    initial,
		Observable: Observability(p),
		Roles:      roles,
	}
	for _, task := range p.Tasks() {
		in.Tasks = append(in.Tasks, automaton.TaskSpec{Name: task, Role: p.TaskRole(task)})
	}
	return in, nil
}

// CompileProcess is the one-call path used by the CLIs: assemble the
// input, compile, and return the DFA.
func CompileProcess(p *bpmn.Process, roles *policy.RoleHierarchy, opts ...lts.Option) (*automaton.DFA, error) {
	in, err := CompileInput(p, roles)
	if err != nil {
		return nil, err
	}
	in.System = NewSystem(p, opts...)
	return automaton.Compile(in)
}
