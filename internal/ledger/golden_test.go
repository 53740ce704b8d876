package ledger_test

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
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
	// SHA-256 over the JSON proof bundle of every case, in case order.
	goldenProofsDigest = "4a931b2bd2ec71c749c0f6d1d4611ad680468d7f007d2cdf34932983acf73ec2"
)

// goldenStateFile is the same ledger's ExportState, written as JSON by
// the ledger that produced the constants above: the checkpoint an
// upgraded daemon restores from.
var goldenStateFile = filepath.Join("testdata", "golden_state.json")

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
	roots, err := json.Marshal(l.Roots(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(roots); got != goldenRootsDigest {
		t.Errorf("roots digest %s, want %s", got, goldenRootsDigest)
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
	if got := sha256Hex(bundles); got != goldenProofsDigest {
		t.Errorf("proof bundles digest %s, want %s", got, goldenProofsDigest)
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

// TestGoldenStateLoads restores the checkpoint the reference ledger
// wrote: it must load, re-export byte-identical JSON, and serve the
// same roots and proofs.
func TestGoldenStateLoads(t *testing.T) {
	raw, err := os.ReadFile(goldenStateFile)
	if err != nil {
		t.Fatal(err)
	}
	var st ledger.State
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	l := goldenLedger(t)
	if err := l.LoadState(&st); err != nil {
		t.Fatalf("LoadState of the reference checkpoint: %v", err)
	}
	again, err := l.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(raw) {
		t.Error("re-exported state differs from the reference checkpoint")
	}
	checkGolden(t, l, caseIDs(goldenEntries(t)))
}
