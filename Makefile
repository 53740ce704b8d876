.PHONY: ci lint cover scenarios benchguard perfbench test bench fuzz chaos serve smoke proofs crash

ci:
	sh ./ci.sh

# gofmt + go vet + pinned staticcheck (skipped with a warning offline).
lint:
	sh ./ci.sh lint

# Coverage ratchet over the verdict-bearing engines.
cover:
	sh ./ci.sh cover

# Declarative purpose-test corpus: purposectl test ./scenarios/... with
# the DFA state-coverage floor, plus a short scenario fuzz.
scenarios:
	sh ./ci.sh scenarios

# Quick P1/P3/P4/P5 timing run vs the checked-in BENCH_baseline.json.
benchguard:
	sh ./ci.sh benchguard

# Smoke test of the serving-path benchmark (cd perfbench && go test .).
perfbench:
	sh ./ci.sh perfbench

test:
	go test ./...

bench:
	go test -bench . -benchmem .

# Short fuzz pass over every fuzz target (the list lives in ci.sh).
fuzz:
	sh ./ci.sh fuzz

# Fault-injection chaos suite under the race detector.
chaos:
	go test -race -run TestChaosPipeline ./internal/faultinject/

# Run the streaming audit server over the paper's hospital scenario.
serve:
	go run ./cmd/auditd -builtin hospital -addr :8443 -checkpoint auditd.ckpt.json

# End-to-end server smoke: random port, stream the Figure 4 trail,
# assert the known violations and metrics, clean SIGTERM drain.
smoke:
	sh ./ci.sh smoke

# Ledger proof smoke: stream the trail, verify every case's inclusion
# proof offline with only the public key, reject three tampered bundles.
proofs:
	sh ./ci.sh proofs

# kill -9 crash-recovery smoke: WAL replay restores every acknowledged
# entry and the rebuilt ledger re-signs a byte-identical root chain.
crash:
	sh ./ci.sh crash
