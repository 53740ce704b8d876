package main

// verify-proof: the offline half of the tamper-evident ledger
// (DESIGN.md §15). It checks a proof bundle fetched from auditd's
// GET /v1/proofs/{case} — entry multiproofs, the signed roots, their
// inclusion in the signed tree head, and the verdict they anchor (or a
// version 1 bundle's per-entry paths and root chain) — with nothing
// but the bundle and the signer's public key. No server, no WAL, no
// trust in the bundle's own embedded key unless the caller accepts it
// explicitly.
//
// Usage:
//
//	purposectl verify-proof -bundle proof.json -pubkey-file ledger.key.pub
//	curl -s $AUDITD/v1/proofs/HT-11 | purposectl verify-proof -pubkey HEX
//
// Exit status: 0 when the proof verifies, 1 when it does not (any
// mutation of an entry, a root, or a signature), 2 on usage errors.

import (
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/ledger"
)

// proofDoc is the accepted input shape: either a bare ledger.CaseProof
// or auditd's /v1/proofs bundle wrapping one (extra fields ignored).
type proofDoc struct {
	Case    string            `json:"case"`
	Outcome string            `json:"outcome"`
	Proof   *ledger.CaseProof `json:"proof"`
	// Bare-proof fields, set when the document IS the proof.
	Entries json.RawMessage `json:"entries"`
	Roots   json.RawMessage `json:"roots"`
}

// verifyProofMain runs the subcommand and returns the process exit
// code; main dispatches to it before the top-level flag parse.
func verifyProofMain(args []string) int {
	fs := flag.NewFlagSet("verify-proof", flag.ContinueOnError)
	bundle := fs.String("bundle", "-", "proof bundle file from GET /v1/proofs/{case} ('-' = stdin)")
	pubHex := fs.String("pubkey", "", "signer's ed25519 public key, hex")
	pubFile := fs.String("pubkey-file", "", "file holding the signer's public key in hex (auditd writes <ledger-key>.pub)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}

	pub, pinned, err := resolvePubKey(*pubHex, *pubFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "purposectl verify-proof:", err)
		return cli.ExitUsage
	}

	var data []byte
	if *bundle == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*bundle)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "purposectl verify-proof:", err)
		return cli.ExitUsage
	}

	var doc proofDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		fmt.Fprintln(os.Stderr, "purposectl verify-proof: decoding bundle:", err)
		return cli.ExitUsage
	}
	proof := doc.Proof
	if proof == nil {
		// Not a wrapped bundle; try the document as a bare CaseProof.
		proof = &ledger.CaseProof{}
		if err := json.Unmarshal(data, proof); err != nil || len(proof.Entries) == 0 {
			fmt.Fprintln(os.Stderr, "purposectl verify-proof: no proof in document (want a /v1/proofs bundle or a bare case proof)")
			return cli.ExitUsage
		}
	}

	if !pinned {
		fmt.Fprintln(os.Stderr, "warning: no -pubkey/-pubkey-file; trusting the key embedded in the bundle (proves internal consistency, not origin)")
	}
	if err := ledger.VerifyCaseProof(pub, proof); err != nil {
		fmt.Printf("INVALID  case %s: %v\n", proof.Case, err)
		return cli.ExitProblem
	}
	if proof.Head != nil {
		fmt.Printf("OK  case %s: %d entries proven against %d signed roots under the signed tree head of size %d\n",
			proof.Case, len(proof.Entries), len(proof.Roots), proof.Head.Size)
	} else {
		// A version 1 bundle: its roots run through the head.
		head := proof.Roots[len(proof.Roots)-1]
		fmt.Printf("OK  case %s: %d entries proven against %d signed roots (head seq %d, %d leaves sealed)\n",
			proof.Case, len(proof.Entries), len(proof.Roots), head.Seq, head.FirstLSN+uint64(head.Leaves)-1)
	}
	if doc.Outcome != "" {
		fmt.Printf("    verdict in bundle: %s\n", doc.Outcome)
	}
	return cli.ExitClean
}

// resolvePubKey picks the verification key: an explicit hex key, a key
// file, or (neither given) the bundle's embedded key with pinned=false.
func resolvePubKey(pubHex, pubFile string) (ed25519.PublicKey, bool, error) {
	if pubHex != "" && pubFile != "" {
		return nil, false, fmt.Errorf("use -pubkey or -pubkey-file, not both")
	}
	if pubFile != "" {
		data, err := os.ReadFile(pubFile)
		if err != nil {
			return nil, false, err
		}
		pubHex = strings.TrimSpace(string(data))
	}
	if pubHex == "" {
		return nil, false, nil
	}
	key, err := hex.DecodeString(pubHex)
	if err != nil || len(key) != ed25519.PublicKeySize {
		return nil, false, fmt.Errorf("public key: want %d hex-encoded bytes", ed25519.PublicKeySize)
	}
	return ed25519.PublicKey(key), true, nil
}
