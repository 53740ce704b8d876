package ledger_test

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/hospital"
	"repro/internal/ledger"
	"repro/internal/workload"
)

// The golden values below were produced by the ledger before leaf
// commitment moved to in-place canonical bytes and [32]byte chain
// hashes. audit.CanonicalEntry bytes, the leaf chain, the Merkle tree
// and the root chain are a frozen wire contract: signed roots and
// proof bundles already handed to auditors must keep verifying, and a
// crash rebuild must re-sign byte-identical roots. Never update these
// constants to make a change pass.
const (
	goldenSeq       = 7
	goldenLeaves    = 390 // 28 Figure-4 entries + a 362-entry HospitalDay
	goldenChainHash = "16d2c8dbd9c725507b682fcdb03324f9b54aad9bcb24ddedf476bb34be24887b"
	goldenSig       = "09114222e6c6fde6d3929f52ceb76c2e7df29fb2421f44b10de950613995a74ed843d67d344a6564565fb6fc8559c47bff8cf8fc17184f286d3d2a5f703aec0f"
	// SHA-256 over json.Marshal(Roots(0)).
	goldenRootsDigest = "6c1849495013b6f95df827c014faf992481931fbb5ae8bdad1f9c1b5767f60d8"
	// SHA-256 over the version 1 JSON proof bundle of every case, in
	// case order: the bundles in goldenProofsV1File.
	goldenProofsDigest = "4a931b2bd2ec71c749c0f6d1d4611ad680468d7f007d2cdf34932983acf73ec2"
)

// The version 2 proofs: the signed head over the seven batch chain
// hashes (RFC 6962 tree, head domain 0x03) and the SHA-256 over the
// version 2 JSON proof bundle of every case, in case order. Pinned
// when the batch tree was introduced; the same rule applies.
const (
	goldenHeadRoot       = "c9f3894dd8edac70bf9e701c30fe54efdabbf45278ab804ee40afaa611390342"
	goldenHeadSig        = "d707546bbf06a525b3240892643df8113866646123e6371747388812b730874d4bb7814a1014336fb3b8f23598909c01904d2f43863b12db19e20dde8e377205"
	goldenProofsV2Digest = "caea097270b3158ea4aa1dd078f37992a37d91b02dd0983b0c1c9d7303a992a9"
)

// goldenStateFile is the same ledger's ExportState, written as JSON by
// the ledger that produced the constants above (version 1, one JSON
// entry per leaf): the checkpoint an upgraded daemon restores from. No
// current ledger writes it; never regenerate it.
var goldenStateFile = filepath.Join("testdata", "golden_state.json")

// goldenStateV2File is the version 2 state goldenStateFile loads into
// and re-exports: each batch's leaves as the canonical bytes they
// hashed. Pinned when checkpoints moved to canonical bytes; the same
// rule applies.
var goldenStateV2File = filepath.Join("testdata", "golden_state_v2.json")

// goldenProofsV1File holds the version 1 proof bundle of every case,
// one compact JSON document per array element, written by the ledger
// before the batch tree existed: the evidence regulators already hold.
// No current ledger can write it; never regenerate it.
var goldenProofsV1File = filepath.Join("testdata", "golden_proofs_v1.json")

func goldenLedger(t testing.TB) *ledger.Ledger {
	t.Helper()
	seed := make([]byte, ed25519.SeedSize)
	copy(seed, "ledger-golden-seed")
	l, err := ledger.New(ledger.Options{Key: ed25519.NewKeyFromSeed(seed), Batch: ledger.DefaultBatch})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func goldenEntries(t testing.TB) []audit.Entry {
	t.Helper()
	fig4, err := hospital.Trail()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := hospital.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	day, _, err := workload.HospitalDay(sc.Registry, hospital.TreatmentCode, 300, 21)
	if err != nil {
		t.Fatal(err)
	}
	return append(fig4.Entries(), day.Entries()...)
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkGolden pins the head root and digests of every root and every
// case's proof bundle.
func checkGolden(t *testing.T, l *ledger.Ledger, cases []string) {
	t.Helper()
	head, ok := l.Head()
	if !ok {
		t.Fatal("no signed root")
	}
	if head.Seq != goldenSeq || head.FirstLSN+uint64(head.Leaves)-1 != goldenLeaves {
		t.Fatalf("head seq %d covers through LSN %d, want seq %d through %d",
			head.Seq, head.FirstLSN+uint64(head.Leaves)-1, goldenSeq, goldenLeaves)
	}
	if head.ChainHash != goldenChainHash {
		t.Errorf("head chain hash %s, want %s", head.ChainHash, goldenChainHash)
	}
	if head.Sig != goldenSig {
		t.Errorf("head signature %s, want %s", head.Sig, goldenSig)
	}
	roots, err := json.Marshal(l.TreeHead(0).Roots)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(roots); got != goldenRootsDigest {
		t.Errorf("roots digest %s, want %s", got, goldenRootsDigest)
	}
	th := l.TreeHead(0).Head
	if th == nil || th.Size != goldenSeq || th.Root != goldenHeadRoot || th.Sig != goldenHeadSig {
		t.Errorf("tree head %+v, want size %d root %s sig %s", th, goldenSeq, goldenHeadRoot, goldenHeadSig)
	}
	var bundles []byte
	for _, c := range cases {
		p, err := l.ProveCase(c)
		if err != nil {
			t.Fatalf("ProveCase(%s): %v", c, err)
		}
		if err := ledger.VerifyCaseProof(l.PublicKey(), p); err != nil {
			t.Fatalf("VerifyCaseProof(%s): %v", c, err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		bundles = append(bundles, b...)
	}
	if got := sha256Hex(bundles); got != goldenProofsV2Digest {
		t.Errorf("proof bundles digest %s, want %s", got, goldenProofsV2Digest)
	}
}

// TestGoldenV1ProofsVerify: the version 1 bundles the reference ledger
// handed out are byte-for-byte the ones goldenProofsDigest pins, each
// still verifies under the golden key, and one flipped byte in any of
// them fails.
func TestGoldenV1ProofsVerify(t *testing.T) {
	raw, err := os.ReadFile(goldenProofsV1File)
	if err != nil {
		t.Fatal(err)
	}
	var docs []json.RawMessage
	if err := json.Unmarshal(raw, &docs); err != nil {
		t.Fatal(err)
	}
	cases := caseIDs(goldenEntries(t))
	if len(docs) != len(cases) {
		t.Fatalf("fixture holds %d bundles, want one per golden case (%d)", len(docs), len(cases))
	}
	var all []byte
	for _, d := range docs {
		all = append(all, d...)
	}
	if got := sha256Hex(all); got != goldenProofsDigest {
		t.Fatalf("fixture digest %s, want %s", got, goldenProofsDigest)
	}
	pub := goldenLedger(t).PublicKey()
	for i, d := range docs {
		var p ledger.CaseProof
		if err := json.Unmarshal(d, &p); err != nil {
			t.Fatal(err)
		}
		if p.Case != cases[i] || p.Version != 0 {
			t.Fatalf("bundle %d is case %q version %d, want %q version 1", i, p.Case, p.Version, cases[i])
		}
		if err := ledger.VerifyCaseProof(pub, &p); err != nil {
			t.Errorf("v1 bundle of case %s: %v", p.Case, err)
		}
		// Flip one hex digit of the first Merkle root: it must fail.
		j := bytes.Index(d, []byte(`"root":"`)) + len(`"root":"`)
		bad := bytes.Clone(d)
		if bad[j] == '0' {
			bad[j] = '1'
		} else {
			bad[j] = '0'
		}
		var q ledger.CaseProof
		if err := json.Unmarshal(bad, &q); err != nil {
			t.Fatal(err)
		}
		if err := ledger.VerifyCaseProof(pub, &q); !errors.Is(err, ledger.ErrProof) {
			t.Errorf("v1 bundle of case %s with a flipped root byte: %v, want ErrProof", p.Case, err)
		}
	}
}

// TestProofTamperV1 runs the version 1 mutation table against a bundle
// from goldenProofsV1File: each layer of it — the entry, the root
// chain, a signature, the per-entry path, the leaf chain, the root
// lookup — must refuse it with its own check. HT-2's entries span
// batches 1 to 4, and its third entry directly follows its second.
func TestProofTamperV1(t *testing.T) {
	raw, err := os.ReadFile(goldenProofsV1File)
	if err != nil {
		t.Fatal(err)
	}
	var docs []json.RawMessage
	if err := json.Unmarshal(raw, &docs); err != nil {
		t.Fatal(err)
	}
	pub := goldenLedger(t).PublicKey()
	fresh := func() *ledger.CaseProof {
		for _, d := range docs {
			var p ledger.CaseProof
			if err := json.Unmarshal(d, &p); err != nil {
				t.Fatal(err)
			}
			if p.Case == "HT-2" {
				if err := ledger.VerifyCaseProof(pub, &p); err != nil {
					t.Fatalf("pristine v1 bundle must verify: %v", err)
				}
				return &p
			}
		}
		t.Fatal("fixture has no HT-2 bundle")
		return nil
	}
	mutations := []struct {
		name   string
		mutate func(p *ledger.CaseProof)
		want   string
	}{
		{"entry byte", func(p *ledger.CaseProof) {
			p.Entries[0].Entry = json.RawMessage(strings.Replace(string(p.Entries[0].Entry), `"read"`, `"rend"`, 1))
		}, "does not prove into root seq 1"},
		{"root leaves count", func(p *ledger.CaseProof) { p.Roots[0].Leaves++ }, "chain hash mismatch at root seq 1"},
		{"root hash", func(p *ledger.CaseProof) { p.Roots[0].Root = strings.Repeat("00", 32) }, "chain hash mismatch at root seq 1"},
		{"root chain", func(p *ledger.CaseProof) { p.Roots[1].PrevChain = strings.Repeat("11", 32) }, "chain hash mismatch at root seq 2"},
		{"signature", func(p *ledger.CaseProof) {
			s := p.Roots[0].Sig
			p.Roots[0].Sig = s[64:] + s[:64]
		}, "bad signature"},
		{"path sibling", func(p *ledger.CaseProof) { p.Entries[0].Path[0].Hash = strings.Repeat("22", 32) }, "does not prove into root seq 1"},
		{"prev chain", func(p *ledger.CaseProof) { p.Entries[2].PrevChain = strings.Repeat("33", 32) }, "leaf chain broken"},
		{"case swap", func(p *ledger.CaseProof) { p.Case = "HT-3" }, "belongs to case"},
		{"missing root", func(p *ledger.CaseProof) { p.Roots = p.Roots[:1] }, "references missing root seq 2"},
	}
	for _, m := range mutations {
		p := fresh()
		m.mutate(p)
		err := ledger.VerifyCaseProof(pub, p)
		if !errors.Is(err, ledger.ErrProof) || !strings.Contains(err.Error(), m.want) {
			t.Errorf("v1 mutation %q: %v, want ErrProof containing %q", m.name, err, m.want)
		}
	}
}

func caseIDs(entries []audit.Entry) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range entries {
		if !seen[e.Case] {
			seen[e.Case] = true
			out = append(out, e.Case)
		}
	}
	sort.Strings(out)
	return out
}

// TestGoldenRoots appends the Figure-4 trail and a seeded HospitalDay
// in server-sized chunks and requires the signed roots and proof
// bundles of the reference ledger, byte for byte.
func TestGoldenRoots(t *testing.T) {
	entries := goldenEntries(t)
	if len(entries) != goldenLeaves {
		t.Fatalf("golden input has %d entries, want %d (generator drift)", len(entries), goldenLeaves)
	}
	l := goldenLedger(t)
	for i := 0; i < len(entries); i += 256 {
		end := min(i+256, len(entries))
		if err := l.Append(entries[i:end], 0); err != nil {
			t.Fatal(err)
		}
	}
	l.Cut()
	checkGolden(t, l, caseIDs(entries))
}

// TestGoldenStateLoads restores the checkpoints reference ledgers
// wrote: the version 1 state (one JSON entry per leaf) and the version
// 2 state it re-exports as (canonical bytes per batch). Each must load
// and serve the same roots and proofs; the version 2 state round-trips
// byte-identically.
func TestGoldenStateLoads(t *testing.T) {
	v2, err := os.ReadFile(goldenStateV2File)
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{goldenStateFile, goldenStateV2File} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var st ledger.State
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		l := goldenLedger(t)
		if err := l.LoadState(&st); err != nil {
			t.Fatalf("LoadState of %s: %v", file, err)
		}
		again, err := l.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, v2) {
			t.Errorf("%s re-exports a state that differs from %s", file, goldenStateV2File)
		}
		checkGolden(t, l, caseIDs(goldenEntries(t)))
	}
}
