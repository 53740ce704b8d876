package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cli"
	"repro/internal/ledger"
	"repro/internal/policy"
)

// proofFixture seals a small trail and writes a /v1/proofs-shaped
// bundle plus the matching public-key file to dir.
func proofFixture(t *testing.T, dir string) (bundlePath, pubPath string) {
	t.Helper()
	seed := sha256.Sum256([]byte("verify-proof-test-seed"))
	key := ed25519.NewKeyFromSeed(seed[:])
	l, err := ledger.New(ledger.Options{Key: key, Batch: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC)
	var entries []audit.Entry
	for i := 0; i < 7; i++ {
		entries = append(entries, audit.Entry{
			User: "alice", Role: "doctor", Action: "execute",
			Object: policy.Object{Subject: "Jane", Path: []string{"EPR"}},
			Task:   "T01", Case: "HT-1", Time: base.Add(time.Duration(i) * time.Minute),
			Status: audit.Success,
		})
	}
	if err := l.Append(entries, 0); err != nil {
		t.Fatal(err)
	}
	proof, err := l.ProveCase("HT-1")
	if err != nil {
		t.Fatal(err)
	}
	bundle := map[string]any{"case": "HT-1", "outcome": "violation", "proof": proof}
	data, err := json.MarshalIndent(bundle, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	bundlePath = filepath.Join(dir, "proof.json")
	if err := os.WriteFile(bundlePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	pubPath = filepath.Join(dir, "ledger.key.pub")
	pub := hex.EncodeToString(key.Public().(ed25519.PublicKey))
	if err := os.WriteFile(pubPath, []byte(pub+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return bundlePath, pubPath
}

func TestVerifyProofAccepts(t *testing.T) {
	dir := t.TempDir()
	bundle, pub := proofFixture(t, dir)
	if code := verifyProofMain([]string{"-bundle", bundle, "-pubkey-file", pub}); code != cli.ExitClean {
		t.Errorf("valid bundle: exit %d, want %d", code, cli.ExitClean)
	}
	// The embedded-key fallback still verifies (with a warning).
	if code := verifyProofMain([]string{"-bundle", bundle}); code != cli.ExitClean {
		t.Errorf("embedded key: exit %d, want %d", code, cli.ExitClean)
	}
}

func TestVerifyProofRejectsTampering(t *testing.T) {
	dir := t.TempDir()
	bundle, pub := proofFixture(t, dir)
	orig, err := os.ReadFile(bundle)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string][2]string{
		"entry field":     {`"alice"`, `"mallory"`},
		"root leaf count": {`"leaves": 3`, `"leaves": 2`},
	}
	for name, m := range mutations {
		if !strings.Contains(string(orig), m[0]) {
			t.Fatalf("%s: mutation target %q not in bundle", name, m[0])
		}
		mutated := strings.Replace(string(orig), m[0], m[1], 1)
		path := filepath.Join(dir, "tampered.json")
		if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
		if code := verifyProofMain([]string{"-bundle", path, "-pubkey-file", pub}); code != cli.ExitProblem {
			t.Errorf("%s: exit %d, want %d", name, code, cli.ExitProblem)
		}
	}
}

// TestVerifyProofAcceptsV1Bundles: version 1 bundles, which carry no
// tree head, still verify offline — every one of the golden fixture's —
// and still fail when a root is edited.
func TestVerifyProofAcceptsV1Bundles(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "ledger", "testdata", "golden_proofs_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var docs []json.RawMessage
	if err := json.Unmarshal(raw, &docs); err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, ed25519.SeedSize)
	copy(seed, "ledger-golden-seed")
	pub := hex.EncodeToString(ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey))
	dir := t.TempDir()
	path := filepath.Join(dir, "v1.json")
	for i, d := range docs {
		if err := os.WriteFile(path, d, 0o644); err != nil {
			t.Fatal(err)
		}
		if code := verifyProofMain([]string{"-bundle", path, "-pubkey", pub}); code != cli.ExitClean {
			t.Fatalf("v1 bundle %d: exit %d, want %d", i, code, cli.ExitClean)
		}
	}
	tampered := strings.Replace(string(docs[0]), `"leaves":64`, `"leaves":63`, 1)
	if tampered == string(docs[0]) {
		t.Fatal("tamper target not in the v1 bundle")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := verifyProofMain([]string{"-bundle", path, "-pubkey", pub}); code != cli.ExitProblem {
		t.Errorf("tampered v1 bundle: exit %d, want %d", code, cli.ExitProblem)
	}
}

func TestVerifyProofRejectsWrongKey(t *testing.T) {
	dir := t.TempDir()
	bundle, _ := proofFixture(t, dir)
	seed := sha256.Sum256([]byte("some-other-key"))
	other := ed25519.NewKeyFromSeed(seed[:])
	pub := hex.EncodeToString(other.Public().(ed25519.PublicKey))
	if code := verifyProofMain([]string{"-bundle", bundle, "-pubkey", pub}); code != cli.ExitProblem {
		t.Errorf("wrong key: exit %d, want %d", code, cli.ExitProblem)
	}
}

func TestVerifyProofUsageErrors(t *testing.T) {
	dir := t.TempDir()
	bundle, pub := proofFixture(t, dir)
	for name, args := range map[string][]string{
		"missing bundle":  {"-bundle", filepath.Join(dir, "nope.json"), "-pubkey-file", pub},
		"both key flags":  {"-bundle", bundle, "-pubkey", "ab", "-pubkey-file", pub},
		"bad key hex":     {"-bundle", bundle, "-pubkey", "zz"},
		"not a proof doc": {"-bundle", pub},
	} {
		if code := verifyProofMain(args); code != cli.ExitUsage {
			t.Errorf("%s: exit %d, want %d", name, code, cli.ExitUsage)
		}
	}
}
