#!/bin/sh
# CI gate: lint (gofmt, go vet, staticcheck when available), full
# build, race-enabled tests (the chaos suite in internal/faultinject
# runs under -race here), the audit decoder's tests built for 386 on
# amd64 hosts, a fuzz smoke over the ingestion surface and
# the COWS parser (each fast decoder held to its reference) plus the
# compiled-vs-interpreted differential target and the ledger's batch
# multiproofs held to per-entry paths, a coverage ratchet
# on the replay engines and the observability layer, the declarative
# purpose-test corpus (every scenario fixture replayed through both
# engines with byte-identical reports and a DFA state-coverage floor),
# a benchmark guard failing on ns/entry regressions of the paper's
# P1/P3/P4/P5 claims vs the checked-in baseline (nil-observer replay
# rows are held to 5%), the serving-path benchmark's own smoke test
# (perfbench), an end-to-end smoke of the auditd streaming server
# including a reboot from its checkpoint, a proofs smoke that verifies
# ledger inclusion proofs offline (and that tampering fails loudly),
# and a crash-recovery smoke that kill -9s the daemon mid-trail and
# requires the write-ahead log to restore every acknowledged entry —
# with the rebuilt ledger signing roots byte-identical to an
# uninterrupted run.
#
# Stages run standalone too:
#   sh ci.sh            # everything
#   sh ci.sh lint       # gofmt + vet + staticcheck
#   sh ci.sh fuzz       # every fuzz target, FUZZ_TIME each (also `make fuzz`)
#   sh ci.sh cover      # coverage ratchet (internal/core, internal/automaton, internal/obs, internal/encode, internal/ledger, internal/scenario) + one CheckTrailCases run
#   sh ci.sh scenarios  # declarative purpose-test corpus (purposectl test ./scenarios/...)
#   sh ci.sh benchguard # quick P1/P3/P4/P5 run vs BENCH_baseline.json
#   sh ci.sh perfbench  # serving-path benchmark smoke test (cd perfbench && go test .)
#   sh ci.sh smoke      # auditd server smoke (also `make smoke`)
#   sh ci.sh proofs     # ledger proof smoke: fetch, verify offline, tamper
#   sh ci.sh crash      # kill -9 crash-recovery smoke over the WAL + ledger
set -eu

# Coverage floor for the verdict-bearing engines. Raise it when
# coverage grows; never lower it to make a PR pass.
COVER_MIN=85.0
# Tolerated ns/entry regression vs the checked-in benchmark baselines.
BENCH_SLACK=0.25
# Minimum DFA state coverage each scenario fixture's trails must reach
# (see DESIGN.md §16). Fixtures that legitimately fall back to the
# interpreter (allow_fallback) are exempt — there is no table to cover.
SCENARIO_COVER_MIN=60
# Fuzzing time per target in the fuzz stage.
FUZZ_TIME=5s
# Pinned staticcheck build (must match GitHub Actions; see ci.yml).
STATICCHECK_VERSION=2025.1.1
# Public key of internal/ledger's golden test ledger, which signed the
# checked-in version 1 proof bundles.
GOLDEN_LEDGER_PUB=56bd71634c567736373d8f5c6e13941685af26b89f1ab22fac9b504ff1498897

SMOKE_TMP=""
SMOKE_PID=""
cleanup() {
	[ -n "$SMOKE_PID" ] && kill "$SMOKE_PID" 2>/dev/null || true
	[ -n "$SMOKE_TMP" ] && rm -rf "$SMOKE_TMP" || true
}
trap cleanup EXIT

# server_smoke boots auditd on a random port, streams the Figure 4
# hospital trail into it, asserts the five known infringements are
# reported and the metrics moved, then SIGTERMs it and requires a
# clean drain with a final checkpoint on disk that a fresh boot
# restores.
server_smoke() {
	echo "== auditd server smoke =="
	SMOKE_TMP=$(mktemp -d)
	go build -o "$SMOKE_TMP/auditd" ./cmd/auditd
	go build -o "$SMOKE_TMP/auditgen" ./cmd/auditgen

	# -stage-sample 1 times every batch: the 28-entry trail produces
	# only a handful of batches, so the default 1-in-64 sampling would
	# leave the stage histograms empty and the assertions below flaky.
	"$SMOKE_TMP/auditd" -builtin hospital -addr 127.0.0.1:0 \
		-addr-file "$SMOKE_TMP/addr" -checkpoint "$SMOKE_TMP/ckpt.json" \
		-stage-sample 1 2>"$SMOKE_TMP/auditd.log" &
	SMOKE_PID=$!

	i=0
	while [ ! -s "$SMOKE_TMP/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "auditd never wrote its address; log:" >&2
			cat "$SMOKE_TMP/auditd.log" >&2
			exit 1
		fi
		sleep 0.1
	done
	addr=$(cat "$SMOKE_TMP/addr")
	curl -sf "http://$addr/readyz" >/dev/null

	# Ingest the Figure 4 trail as an NDJSON stream; ?wait=1 blocks
	# until every entry reached its monitor.
	"$SMOKE_TMP/auditgen" -builtin hospital -stream |
		curl -sf --data-binary @- "http://$addr/v1/events?wait=1" \
			>"$SMOKE_TMP/ingest.json"
	grep -q '"accepted": 28' "$SMOKE_TMP/ingest.json" || {
		echo "unexpected ingest result:" >&2
		cat "$SMOKE_TMP/ingest.json" >&2
		exit 1
	}

	# The paper's five infringing cases must be reported as violations.
	# Count via the endpoint's total field: the per-case explanation
	# repeats the outcome string, so grep -c would double-count.
	curl -sf "http://$addr/v1/cases?outcome=violation" >"$SMOKE_TMP/violations.json"
	n=$(sed -n 's/^  "total": \([0-9][0-9]*\)$/\1/p' "$SMOKE_TMP/violations.json")
	if [ "$n" != 5 ]; then
		echo "expected 5 violating cases, got ${n:-none}:" >&2
		cat "$SMOKE_TMP/violations.json" >&2
		exit 1
	fi
	curl -sf "http://$addr/v1/cases/HT-11" | grep -q '"outcome": "violation"' || {
		echo "HT-11 (the paper's re-purposing attack) not flagged" >&2
		exit 1
	}

	# The explain endpoint names the diverging entry and expected tasks.
	curl -sf "http://$addr/v1/cases/HT-10/explain" >"$SMOKE_TMP/explain.json"
	grep -q '"expected_tasks"' "$SMOKE_TMP/explain.json" &&
		grep -q '"nearest_miss"' "$SMOKE_TMP/explain.json" || {
		echo "explain endpoint lacks the structured explanation:" >&2
		cat "$SMOKE_TMP/explain.json" >&2
		exit 1
	}

	# Observability: the ingest and verdict series moved.
	curl -sf "http://$addr/metrics" >"$SMOKE_TMP/metrics.txt"
	grep -q '^auditd_events_ingested_total 28$' "$SMOKE_TMP/metrics.txt" || {
		echo "ingest counter did not move:" >&2
		grep ^auditd_events "$SMOKE_TMP/metrics.txt" >&2
		exit 1
	}
	grep -q '^auditd_verdicts_total{outcome="violation"} [1-9]' "$SMOKE_TMP/metrics.txt" || {
		echo "violation verdict counter did not move" >&2
		exit 1
	}
	grep -q '^auditd_purpose_verdicts_total{purpose="HealthcareTreatment",outcome="violation"} [1-9]' "$SMOKE_TMP/metrics.txt" || {
		echo "per-purpose verdict counter did not move" >&2
		exit 1
	}
	grep -q '^auditd_go_goroutines ' "$SMOKE_TMP/metrics.txt" || {
		echo "runtime gauges missing" >&2
		exit 1
	}

	# PR 10: every batch was stage-timed (-stage-sample 1), so the
	# stage-latency histograms must have observations, and the build
	# identity series must be present.
	grep -q '^auditd_stage_latency_seconds_count{stage="replay"} [1-9]' "$SMOKE_TMP/metrics.txt" &&
		grep -q '^auditd_stage_latency_seconds_count{stage="decode"} [1-9]' "$SMOKE_TMP/metrics.txt" &&
		grep -q '^auditd_stage_latency_seconds_count{stage="queue_wait"} [1-9]' "$SMOKE_TMP/metrics.txt" || {
		echo "stage-latency histograms did not fill:" >&2
		grep ^auditd_stage "$SMOKE_TMP/metrics.txt" >&2
		exit 1
	}
	grep -q '^auditd_build_info{version=' "$SMOKE_TMP/metrics.txt" || {
		echo "auditd_build_info series missing" >&2
		exit 1
	}

	# PR 10: /v1/status is the deep operational view purposectl top
	# renders — the totals must reflect the ingest that just happened.
	curl -sf "http://$addr/v1/status" >"$SMOKE_TMP/status.json"
	grep -q '"ready": true' "$SMOKE_TMP/status.json" &&
		grep -q '"ingested": 28' "$SMOKE_TMP/status.json" &&
		grep -q '"stage_sample_every": 1' "$SMOKE_TMP/status.json" &&
		grep -q '"shards"' "$SMOKE_TMP/status.json" || {
		echo "/v1/status incomplete:" >&2
		cat "$SMOKE_TMP/status.json" >&2
		exit 1
	}

	# Clean shutdown: SIGTERM must drain and write a final checkpoint.
	kill -TERM "$SMOKE_PID"
	wait "$SMOKE_PID" || {
		echo "auditd exited non-zero; log:" >&2
		cat "$SMOKE_TMP/auditd.log" >&2
		exit 1
	}
	SMOKE_PID=""
	[ -s "$SMOKE_TMP/ckpt.json" ] || {
		echo "no final checkpoint written" >&2
		exit 1
	}
	grep -q '"monitor"' "$SMOKE_TMP/ckpt.json" || {
		echo "checkpoint has no monitor state" >&2
		exit 1
	}

	# Checkpoint reboot: a fresh boot from the JSON checkpoint the
	# first (interpreted) daemon wrote on TERM must still know all five
	# violations without re-ingesting anything — here on the compiled
	# engine, so the restored cases cross engines.
	: >"$SMOKE_TMP/addr"
	"$SMOKE_TMP/auditd" -builtin hospital -addr 127.0.0.1:0 -compiled \
		-addr-file "$SMOKE_TMP/addr" -checkpoint "$SMOKE_TMP/ckpt.json" \
		2>"$SMOKE_TMP/auditd2.log" &
	SMOKE_PID=$!
	i=0
	while [ ! -s "$SMOKE_TMP/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "auditd did not boot from the checkpoint; log:" >&2
			cat "$SMOKE_TMP/auditd2.log" >&2
			exit 1
		fi
		sleep 0.1
	done
	addr=$(cat "$SMOKE_TMP/addr")
	curl -sf "http://$addr/v1/cases?outcome=violation" >"$SMOKE_TMP/violations2.json"
	b=$(sed -n 's/^  "total": \([0-9][0-9]*\)$/\1/p' "$SMOKE_TMP/violations2.json")
	if [ "$b" != 5 ]; then
		echo "expected 5 violations restored from checkpoint, got ${b:-none}:" >&2
		cat "$SMOKE_TMP/violations2.json" >&2
		exit 1
	fi
	kill -TERM "$SMOKE_PID"
	wait "$SMOKE_PID" || {
		echo "restored auditd exited non-zero; log:" >&2
		cat "$SMOKE_TMP/auditd2.log" >&2
		exit 1
	}
	SMOKE_PID=""

	echo "server smoke OK ($n violations, clean drain, checkpoint reboot)"
	rm -rf "$SMOKE_TMP"
	SMOKE_TMP=""
}

# proofs_smoke exercises the tamper-evident ledger end to end: boot
# auditd with sealing enabled, stream the Figure 4 trail, fetch the
# proof bundle for every case, and verify each offline with only the
# mirrored public key — then flip bytes in an infringing case's bundle
# (an entry field, a referenced root's leaf count, the signatures, a
# tree-path hash) and require the verifier to fail loudly on all four.
# The version 1 bundles checked in as internal/ledger's golden fixture
# (evidence handed out before the batch tree) must verify first.
proofs_smoke() {
	echo "== ledger proofs smoke (fetch, verify offline, tamper) =="
	SMOKE_TMP=$(mktemp -d)
	go build -o "$SMOKE_TMP/auditd" ./cmd/auditd
	go build -o "$SMOKE_TMP/auditgen" ./cmd/auditgen
	go build -o "$SMOKE_TMP/purposectl" ./cmd/purposectl

	# One compact bundle per line of the fixture; the key is the golden
	# ledger's, pinned here rather than read from the bundles.
	grep '^{' internal/ledger/testdata/golden_proofs_v1.json | sed 's/,$//' |
		while IFS= read -r doc; do
			printf '%s\n' "$doc" >"$SMOKE_TMP/v1.json"
			"$SMOKE_TMP/purposectl" verify-proof -bundle "$SMOKE_TMP/v1.json" \
				-pubkey "$GOLDEN_LEDGER_PUB" >/dev/null || {
				echo "checked-in v1 proof bundle does not verify:" >&2
				head -c 300 "$SMOKE_TMP/v1.json" >&2
				exit 1
			}
		done
	v1=$(grep -c '^{' internal/ledger/testdata/golden_proofs_v1.json)

	"$SMOKE_TMP/auditd" -builtin hospital -addr 127.0.0.1:0 \
		-addr-file "$SMOKE_TMP/addr" -checkpoint "$SMOKE_TMP/ckpt.json" \
		-wal-dir "$SMOKE_TMP/wal" \
		-ledger -ledger-key "$SMOKE_TMP/ledger.key" -ledger-batch 4 -ledger-wait 0 \
		2>"$SMOKE_TMP/auditd.log" &
	SMOKE_PID=$!
	i=0
	while [ ! -s "$SMOKE_TMP/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "ledger auditd never wrote its address; log:" >&2
			cat "$SMOKE_TMP/auditd.log" >&2
			exit 1
		fi
		sleep 0.1
	done
	addr=$(cat "$SMOKE_TMP/addr")

	"$SMOKE_TMP/auditgen" -builtin hospital -stream >"$SMOKE_TMP/trail.ndjson"
	curl -sf --data-binary @"$SMOKE_TMP/trail.ndjson" \
		"http://$addr/v1/events?wait=1" >/dev/null

	# Every case in the trail must yield a bundle that verifies offline
	# with only the mirrored public key.
	cases=$(sed -n 's/.*"case":[[:space:]]*"\([^"]*\)".*/\1/p' "$SMOKE_TMP/trail.ndjson" | sort -u)
	for c in $cases; do
		curl -sf "http://$addr/v1/proofs/$c" >"$SMOKE_TMP/proof-$c.json"
		"$SMOKE_TMP/purposectl" verify-proof -bundle "$SMOKE_TMP/proof-$c.json" \
			-pubkey-file "$SMOKE_TMP/ledger.key.pub" >/dev/null || {
			echo "proof for case $c does not verify offline" >&2
			cat "$SMOKE_TMP/proof-$c.json" >&2
			exit 1
		}
	done

	# The signed root chain verifies and is fully sealed (28 entries at
	# batch 4 = 7 batches, no open tail).
	curl -sf "http://$addr/metrics" >"$SMOKE_TMP/metrics.txt"
	grep -q '^auditd_ledger_batches_total 7$' "$SMOKE_TMP/metrics.txt" &&
		grep -q '^auditd_ledger_open_leaves 0$' "$SMOKE_TMP/metrics.txt" || {
		echo "ledger did not seal 7 full batches:" >&2
		grep ^auditd_ledger "$SMOKE_TMP/metrics.txt" >&2
		exit 1
	}

	# Tampering must fail loudly: an entry field, the referenced roots'
	# leaf counts, the signatures of the roots and the tree head (halves
	# swapped keeps them well-formed hex), and the first hash of each
	# inclusion path into the head (digits rotated, still hex).
	bundle="$SMOKE_TMP/proof-HT-11.json"
	grep -q '"head": {' "$bundle" || {
		echo "proof bundle carries no signed tree head:" >&2
		cat "$bundle" >&2
		exit 1
	}
	sed 's/"Bob"/"Eve"/' "$bundle" >"$SMOKE_TMP/tampered-entry.json"
	sed 's/"leaves": 4/"leaves": 3/' "$bundle" >"$SMOKE_TMP/tampered-root.json"
	sed -E 's/"sig": "([0-9a-f]{64})([0-9a-f]{64})"/"sig": "\2\1"/' \
		"$bundle" >"$SMOKE_TMP/tampered-sig.json"
	sed '/"inclusion": \[/{n;y/0123456789abcdef/123456789abcdef0/;}' \
		"$bundle" >"$SMOKE_TMP/tampered-path.json"
	for mut in entry root sig path; do
		if cmp -s "$bundle" "$SMOKE_TMP/tampered-$mut.json"; then
			echo "tamper '$mut' mutated nothing in the bundle" >&2
			exit 1
		fi
		set +e
		"$SMOKE_TMP/purposectl" verify-proof -bundle "$SMOKE_TMP/tampered-$mut.json" \
			-pubkey-file "$SMOKE_TMP/ledger.key.pub" >/dev/null 2>&1
		code=$?
		set -e
		if [ "$code" != 1 ]; then
			echo "tampered bundle ($mut) exited $code, want 1" >&2
			exit 1
		fi
	done

	kill -TERM "$SMOKE_PID"
	wait "$SMOKE_PID" || {
		echo "ledger auditd exited non-zero; log:" >&2
		cat "$SMOKE_TMP/auditd.log" >&2
		exit 1
	}
	SMOKE_PID=""
	nc=$(echo "$cases" | wc -w)
	echo "proofs smoke OK ($v1 v1 bundles and $nc cases verified offline, 4 tampers rejected)"
	rm -rf "$SMOKE_TMP"
	SMOKE_TMP=""
}

# crash_smoke proves the write-ahead log keeps every acknowledged
# entry across kill -9. It streams the first half of the Figure 4
# trail (fsync always, so the 202 means "on disk"), SIGKILLs the
# daemon before any checkpoint exists (-checkpoint-every 1h), reboots
# from the WAL alone, streams the second half, and requires the five
# known infringements plus verdicts identical to an uninterrupted
# control run — nothing acknowledged may be lost, nothing replayed
# twice. The ledger rides along: the crashed-and-rebuilt run must sign
# a root chain and serve proof bundles byte-identical to the
# uninterrupted control's, and its proofs must still verify offline.
# A second sequence starts from a checkpoint: SIGTERM after a prefix
# (final checkpoint plus ledger archive), a tail under -fsync always,
# kill -9, reboot; the reboot must replay and decode exactly the tail
# and end on the control's root chain and proof bundles.
crash_smoke() {
	echo "== crash-recovery smoke (WAL + ledger, kill -9) =="
	SMOKE_TMP=$(mktemp -d)
	go build -o "$SMOKE_TMP/auditd" ./cmd/auditd
	go build -o "$SMOKE_TMP/auditgen" ./cmd/auditgen
	go build -o "$SMOKE_TMP/purposectl" ./cmd/purposectl

	"$SMOKE_TMP/auditgen" -builtin hospital -stream >"$SMOKE_TMP/trail.ndjson"
	lines=$(wc -l <"$SMOKE_TMP/trail.ndjson")
	half=$((lines / 2))
	head -n "$half" "$SMOKE_TMP/trail.ndjson" >"$SMOKE_TMP/first.ndjson"
	tail -n +"$((half + 1))" "$SMOKE_TMP/trail.ndjson" >"$SMOKE_TMP/second.ndjson"

	# crash_boot starts auditd with the durable WAL config; $1 names the
	# log file, the remaining args are appended to the command line.
	crash_boot() {
		log="$1"
		shift
		: >"$SMOKE_TMP/addr"
		"$SMOKE_TMP/auditd" -builtin hospital -addr 127.0.0.1:0 \
			-addr-file "$SMOKE_TMP/addr" -checkpoint-every 1h \
			"$@" 2>"$SMOKE_TMP/$log.log" &
		SMOKE_PID=$!
		i=0
		while [ ! -s "$SMOKE_TMP/addr" ]; do
			i=$((i + 1))
			if [ "$i" -gt 100 ]; then
				echo "auditd ($log) never wrote its address; log:" >&2
				cat "$SMOKE_TMP/$log.log" >&2
				exit 1
			fi
			sleep 0.1
		done
		addr=$(cat "$SMOKE_TMP/addr")
	}

	# -ledger-wait 0 keeps sealing deterministic: batches close on size
	# alone, so the root chain depends only on the entry sequence.
	ledger_flags="-ledger -ledger-key $SMOKE_TMP/ledger.key -ledger-batch 4 -ledger-wait 0"

	# shellcheck disable=SC2086
	crash_boot crash1 -checkpoint "$SMOKE_TMP/crash-ckpt.json" \
		-wal-dir "$SMOKE_TMP/wal" -fsync always $ledger_flags
	curl -sf --data-binary @"$SMOKE_TMP/first.ndjson" \
		"http://$addr/v1/events?wait=1" >"$SMOKE_TMP/ingest1.json"
	grep -q "\"accepted\": $half" "$SMOKE_TMP/ingest1.json" || {
		echo "first half not fully acknowledged:" >&2
		cat "$SMOKE_TMP/ingest1.json" >&2
		exit 1
	}

	# Every acknowledged entry is fsynced; nothing else may save us.
	kill -9 "$SMOKE_PID"
	wait "$SMOKE_PID" 2>/dev/null || true
	SMOKE_PID=""
	if [ -e "$SMOKE_TMP/crash-ckpt.json" ]; then
		echo "checkpoint written before the crash; the test proves nothing" >&2
		exit 1
	fi

	mkdir -p "$SMOKE_TMP/flight"
	# shellcheck disable=SC2086
	crash_boot crash2 -checkpoint "$SMOKE_TMP/crash-ckpt.json" \
		-wal-dir "$SMOKE_TMP/wal" -fsync always \
		-flight-dir "$SMOKE_TMP/flight" $ledger_flags
	curl -sf "http://$addr/metrics" >"$SMOKE_TMP/crash-metrics.txt"
	grep -q "^auditd_wal_replayed_total $half$" "$SMOKE_TMP/crash-metrics.txt" || {
		echo "reboot did not replay the $half acknowledged entries:" >&2
		grep ^auditd_wal "$SMOKE_TMP/crash-metrics.txt" >&2
		exit 1
	}
	curl -sf --data-binary @"$SMOKE_TMP/second.ndjson" \
		"http://$addr/v1/events?wait=1" >"$SMOKE_TMP/ingest2.json"
	grep -q "\"accepted\": $((lines - half))" "$SMOKE_TMP/ingest2.json" || {
		echo "second half not fully acknowledged:" >&2
		cat "$SMOKE_TMP/ingest2.json" >&2
		exit 1
	}

	# PR 10: SIGQUIT dumps the flight recorder and the daemon keeps
	# serving; the dump is a valid JSON post-mortem of the replay the
	# reboot just did.
	kill -QUIT "$SMOKE_PID"
	i=0
	until ls "$SMOKE_TMP"/flight/flightrec-sigquit-*.json >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "SIGQUIT produced no flight dump; log:" >&2
			cat "$SMOKE_TMP/crash2.log" >&2
			exit 1
		fi
		sleep 0.1
	done
	dump=$(ls "$SMOKE_TMP"/flight/flightrec-sigquit-*.json | head -n 1)
	grep -q '"reason": "sigquit"' "$dump" &&
		grep -q '"batch_fed"' "$dump" || {
		echo "flight dump incomplete:" >&2
		cat "$dump" >&2
		exit 1
	}
	# The reboot replayed violating WAL records, so the dump holds
	# verdict events carrying their provenance: WAL LSN and engine.
	tr -d ' \n' <"$dump" | grep -q '"kind":"verdict"[^}]*"lsn":[1-9][0-9]*,"engine":"[a-z]' || {
		echo "flight dump has no verdict event with a WAL LSN and an engine:" >&2
		cat "$dump" >&2
		exit 1
	}
	curl -sf "http://$addr/readyz" >/dev/null || {
		echo "auditd stopped serving after SIGQUIT" >&2
		exit 1
	}

	# PR 10: purposectl top -once renders the live dashboard.
	"$SMOKE_TMP/purposectl" top -once -addr "http://$addr" >"$SMOKE_TMP/top.txt"
	grep -q '^auditd ' "$SMOKE_TMP/top.txt" &&
		grep -q 'wal: ' "$SMOKE_TMP/top.txt" &&
		grep -q 'shard ' "$SMOKE_TMP/top.txt" || {
		echo "purposectl top -once did not render:" >&2
		cat "$SMOKE_TMP/top.txt" >&2
		exit 1
	}

	curl -sf "http://$addr/v1/cases?outcome=violation" >"$SMOKE_TMP/crash-violations.json"
	v=$(sed -n 's/^  "total": \([0-9][0-9]*\)$/\1/p' "$SMOKE_TMP/crash-violations.json")
	if [ "$v" != 5 ]; then
		echo "expected 5 violations after the kill -9 reboot, got ${v:-none}:" >&2
		cat "$SMOKE_TMP/crash-violations.json" >&2
		exit 1
	fi
	curl -sf "http://$addr/v1/cases" >"$SMOKE_TMP/crash-cases.json"
	curl -sf "http://$addr/v1/roots" >"$SMOKE_TMP/crash-roots.json"
	# The roots listing carries the signed tree head, so the byte diff
	# against the control run below covers the head too.
	grep -q '"head": {' "$SMOKE_TMP/crash-roots.json" || {
		echo "/v1/roots carries no signed tree head:" >&2
		cat "$SMOKE_TMP/crash-roots.json" >&2
		exit 1
	}
	# Every case's proof bundle, fetched in the same order in both runs
	# (a proof of an open batch forces a cut), for the diff below.
	cases=$(sed -n 's/.*"case":"\([^"]*\)".*/\1/p' "$SMOKE_TMP/trail.ndjson" | sort -u)
	fetch_proofs() {
		mkdir -p "$SMOKE_TMP/$1-proofs"
		for c in $cases; do
			curl -sf "http://$addr/v1/proofs/$c" >"$SMOKE_TMP/$1-proofs/$c.json"
		done
	}
	fetch_proofs crash
	kill -TERM "$SMOKE_PID"
	wait "$SMOKE_PID" || {
		echo "rebooted auditd exited non-zero; log:" >&2
		cat "$SMOKE_TMP/crash2.log" >&2
		exit 1
	}
	SMOKE_PID=""

	# The ledger rebuilt across the crash must still prove inclusion —
	# offline, against the mirrored public key.
	"$SMOKE_TMP/purposectl" verify-proof -bundle "$SMOKE_TMP/crash-proofs/HT-11.json" \
		-pubkey-file "$SMOKE_TMP/ledger.key.pub" >/dev/null || {
		echo "post-crash ledger proof does not verify offline" >&2
		cat "$SMOKE_TMP/crash-proofs/HT-11.json" >&2
		exit 1
	}

	# Control: the same trail through an uninterrupted daemon (its own
	# WAL, the same signing key). Verdicts must match the crashed run
	# byte for byte once the run-dependent fields (update time, shard
	# index, WAL position) are projected out.
	# shellcheck disable=SC2086
	crash_boot control -checkpoint "$SMOKE_TMP/control-ckpt.json" \
		-wal-dir "$SMOKE_TMP/control-wal" -fsync always $ledger_flags
	curl -sf --data-binary @"$SMOKE_TMP/trail.ndjson" \
		"http://$addr/v1/events?wait=1" >/dev/null
	curl -sf "http://$addr/v1/cases" >"$SMOKE_TMP/control-cases.json"
	curl -sf "http://$addr/v1/roots" >"$SMOKE_TMP/control-roots.json"
	fetch_proofs control
	kill -TERM "$SMOKE_PID"
	wait "$SMOKE_PID" || true
	SMOKE_PID=""

	# A signed root or head commits to nothing run-dependent: the kill -9
	# run's chain and head must be byte-identical to the control's.
	diff -u "$SMOKE_TMP/control-roots.json" "$SMOKE_TMP/crash-roots.json" || {
		echo "root chain after kill -9 rebuild diverges from the uninterrupted run" >&2
		exit 1
	}
	# So must every proof bundle: the entries, their paths and the
	# verdict they prove.
	diff -ru "$SMOKE_TMP/control-proofs" "$SMOKE_TMP/crash-proofs" || {
		echo "proof bundles after kill -9 rebuild diverge from the uninterrupted run" >&2
		exit 1
	}

	for f in crash control; do
		grep -vE '"(updated|shard|wal_lsn)":' "$SMOKE_TMP/$f-cases.json" \
			>"$SMOKE_TMP/$f-cases.norm"
	done
	diff -u "$SMOKE_TMP/control-cases.norm" "$SMOKE_TMP/crash-cases.norm" || {
		echo "verdicts after kill -9 reboot diverge from the uninterrupted run" >&2
		exit 1
	}

	# Checkpoint, then a WAL tail (perfbench's auditor-queries shape): a
	# SIGTERM writes the final checkpoint and the ledger archive beside
	# it; a reboot under -fsync always takes a tail and is killed; the
	# next boot restores the archive and replays exactly the tail. The
	# prefix is a whole number of 4-leaf batches, so the shutdown's
	# ledger cut seals nothing early and the chain stays comparable.
	prefix=12
	tail_n=8
	head -n "$prefix" "$SMOKE_TMP/trail.ndjson" >"$SMOKE_TMP/prefix.ndjson"
	tail -n +"$((prefix + 1))" "$SMOKE_TMP/trail.ndjson" | head -n "$tail_n" >"$SMOKE_TMP/tail.ndjson"
	tail -n +"$((prefix + tail_n + 1))" "$SMOKE_TMP/trail.ndjson" >"$SMOKE_TMP/rest.ndjson"
	ckpt_flags="-checkpoint $SMOKE_TMP/ckpt-ckpt.json -wal-dir $SMOKE_TMP/ckpt-wal $ledger_flags"
	# shellcheck disable=SC2086
	crash_boot ckpt1 $ckpt_flags
	curl -sf --data-binary @"$SMOKE_TMP/prefix.ndjson" \
		"http://$addr/v1/events?wait=1" >/dev/null
	kill -TERM "$SMOKE_PID"
	wait "$SMOKE_PID" || {
		echo "auditd exited non-zero on SIGTERM; log:" >&2
		cat "$SMOKE_TMP/ckpt1.log" >&2
		exit 1
	}
	SMOKE_PID=""
	if [ ! -s "$SMOKE_TMP/ckpt-ckpt.json" ] || [ ! -s "$SMOKE_TMP/ckpt-ckpt.json.ledger" ]; then
		echo "SIGTERM left no checkpoint and ledger archive" >&2
		exit 1
	fi
	# shellcheck disable=SC2086
	crash_boot ckpt2 $ckpt_flags -fsync always
	curl -sf --data-binary @"$SMOKE_TMP/tail.ndjson" \
		"http://$addr/v1/events?wait=1" >/dev/null
	kill -9 "$SMOKE_PID"
	wait "$SMOKE_PID" 2>/dev/null || true
	SMOKE_PID=""
	# shellcheck disable=SC2086
	crash_boot ckpt3 $ckpt_flags
	curl -sf "http://$addr/metrics" >"$SMOKE_TMP/ckpt-metrics.txt"
	grep -q "^auditd_wal_replayed_total $tail_n$" "$SMOKE_TMP/ckpt-metrics.txt" &&
		grep -q "^auditd_wal_replay_decoded_total $tail_n$" "$SMOKE_TMP/ckpt-metrics.txt" || {
		echo "reboot from the checkpoint did not replay (and decode) exactly the $tail_n-entry tail:" >&2
		grep ^auditd_wal "$SMOKE_TMP/ckpt-metrics.txt" >&2
		exit 1
	}
	curl -sf --data-binary @"$SMOKE_TMP/rest.ndjson" \
		"http://$addr/v1/events?wait=1" >/dev/null
	curl -sf "http://$addr/v1/roots" >"$SMOKE_TMP/ckpt-roots.json"
	fetch_proofs ckpt
	kill -TERM "$SMOKE_PID"
	wait "$SMOKE_PID" || {
		echo "auditd rebooted from the checkpoint exited non-zero; log:" >&2
		cat "$SMOKE_TMP/ckpt3.log" >&2
		exit 1
	}
	SMOKE_PID=""
	diff -u "$SMOKE_TMP/control-roots.json" "$SMOKE_TMP/ckpt-roots.json" || {
		echo "root chain after checkpoint + kill -9 tail diverges from the uninterrupted run" >&2
		exit 1
	}
	diff -ru "$SMOKE_TMP/control-proofs" "$SMOKE_TMP/ckpt-proofs" || {
		echo "proof bundles after checkpoint + kill -9 tail diverge from the uninterrupted run" >&2
		exit 1
	}

	echo "crash smoke OK ($half acknowledged entries survived kill -9, $v violations, verdicts identical, root chains and proof bundles byte-identical; from a checkpoint, the $tail_n-entry tail alone replayed)"
	rm -rf "$SMOKE_TMP"
	SMOKE_TMP=""
}

# lint gates on gofmt and go vet unconditionally. staticcheck is
# version-pinned. Under CI (GitHub Actions sets $CI, and the workflow
# caches ~/go/bin/staticcheck) an absent binary is installed on the
# spot and must then run. Elsewhere the stage uses the staticcheck on
# PATH or in $(go env GOPATH)/bin and otherwise skips with a warning,
# without reaching for the network.
lint() {
	echo "== gofmt =="
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt: the following files need formatting:" >&2
		echo "$unformatted" >&2
		exit 1
	fi

	echo "== go vet =="
	go vet ./...

	echo "== staticcheck ($STATICCHECK_VERSION) =="
	PATH="$PATH:$(go env GOPATH)/bin"
	if ! command -v staticcheck >/dev/null 2>&1 && [ -n "${CI:-}" ]; then
		GOBIN="$(go env GOPATH)/bin" go install \
			"honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION"
	fi
	if command -v staticcheck >/dev/null 2>&1; then
		staticcheck ./...
	else
		echo "staticcheck unavailable (offline?); skipping" >&2
	fi
}

# cover ratchets statement coverage of the packages that decide and
# explain verdicts: the interpreter (internal/core), the table compiler
# (internal/automaton), the observability layer (internal/obs), the
# BPMN-to-COWS encoding and WAL record framing (internal/encode — the
# terms every engine replays and the frames recovery trusts), the
# tamper-evidence layer (internal/ledger — it signs what
# auditors rely on) and the scenario framework (internal/scenario — it
# decides what the corpus asserts). The combined figure must stay
# >= COVER_MIN. One iteration of BenchmarkCheckTrailCases rides along
# so the audit-scaling benchmark keeps compiling and running; its
# deterministic gate is TestAuditVisitsLinear in internal/core.
cover() {
	echo "== coverage ratchet (internal/core, internal/automaton, internal/obs, internal/encode, internal/ledger, internal/scenario; min ${COVER_MIN}%) =="
	go test -coverprofile=cover.out ./internal/core/ ./internal/automaton/ ./internal/obs/ ./internal/encode/ ./internal/ledger/ ./internal/scenario/
	total=$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
	echo "combined engine coverage: ${total}%"
	if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
		echo "Engine coverage: **${total}%** (floor ${COVER_MIN}%)" >>"$GITHUB_STEP_SUMMARY"
	fi
	awk -v t="$total" -v min="$COVER_MIN" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || {
		echo "coverage ${total}% fell below the ${COVER_MIN}% floor" >&2
		exit 1
	}

	echo "== audit scaling (BenchmarkCheckTrailCases, one iteration) =="
	go test -run '^$' -bench CheckTrailCases -benchtime 1x .
}

# scenarios runs the declarative purpose-test corpus: every
# *.scenario.json fixture replays its annotated trails through the
# interpreter and the dense compiled automaton, requires
# byte-identical reports, checks the declared verdicts and
# first deviations, and holds each fixture's DFA state coverage to
# SCENARIO_COVER_MIN (DESIGN.md §16). A short run of the scenario
# fuzzer rides along, co-mutating a process and its trail to hunt for
# engine disagreement beyond the curated corpus.
scenarios() {
	echo "== scenario corpus (purposectl test, state-coverage floor ${SCENARIO_COVER_MIN}%) =="
	if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
		go run ./cmd/purposectl test -cover-min "$SCENARIO_COVER_MIN" \
			-summary "$GITHUB_STEP_SUMMARY" ./scenarios/...
	else
		go run ./cmd/purposectl test -cover-min "$SCENARIO_COVER_MIN" ./scenarios/...
	fi

	echo "== scenario fuzz smoke =="
	go test ./internal/scenario/ -run '^$' -fuzz '^FuzzScenario$' -fuzztime 5s
}

# benchguard replays the timed P1 (trail length), P3 (parallel cases),
# P4 (compiled vs interpreted) and P5 (observer overhead) series in
# quick mode and fails if any long-trail row's ns/entry regressed more
# than BENCH_SLACK vs the checked-in baseline. The P1/P4 nil-observer
# replay rows are held to 5%: a disabled observer must stay free. Rows
# under 100 entries are reported, not compared. The serving path
# (decode, dispatch, WAL, ledger, stage sampling, restore) is measured
# by perfbench and its ratio claims are tier-1 tests in
# internal/server.
benchguard() {
	echo "== benchguard (P1, P3, P4, P5 vs BENCH_baseline.json) =="
	go run ./cmd/benchtab -exp P1,P3,P4,P5 -quick \
		-guard BENCH_baseline.json \
		-guard-slack "$BENCH_SLACK" -guard-slack-exp P1=0.05,P4=0.05
}

# fuzz runs every fuzz target in the repository except FuzzScenario
# (the scenarios stage runs it beside the corpus it mutates) for
# FUZZ_TIME each: the ingestion decoders never panic and agree with
# their stdlib references (one entry, and a whole stream whose lines
# share the scanner's memos), the COWS parser and lexer round-trip,
# the COWS step engine (selective unfolding) and canonicalizer match
# their eager reference implementations, the compiled engine matches
# the interpreter, ledger multiproofs match per-entry paths, a
# checkpointed batch's canonical bytes either refuse to load or load
# and re-export byte-identically, and so does an arbitrary ledger
# archive under an arbitrary checkpoint reference, and an arbitrary WAL
# segment, last or sealed, either opens or is ErrCorrupt and replays
# without panicking, each record it yields re-rendering to its bytes.
fuzz() {
	echo "== fuzz smoke (${FUZZ_TIME} per target) =="
	for target in FuzzReadCSV FuzzReadJSONL FuzzCanonicalEntry FuzzParsePaperTime FuzzDecodeEntry FuzzDecodeJSONLStream; do
		go test ./internal/audit/ -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZ_TIME"
	done
	for target in FuzzParse FuzzStepTerminates FuzzLexerDifferential FuzzStepDifferential FuzzCanonDifferential; do
		go test ./internal/cows/ -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZ_TIME"
	done
	go test ./internal/core/ -run '^$' -fuzz '^FuzzCompiledReplay$' -fuzztime "$FUZZ_TIME"
	for target in FuzzMultiProof FuzzLedgerStateCanon FuzzLedgerArchive; do
		go test ./internal/ledger/ -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZ_TIME"
	done
	go test ./internal/wal/ -run '^$' -fuzz '^FuzzWALSegment$' -fuzztime "$FUZZ_TIME"
}

# perfbench runs the serving-path benchmark's own smoke test: every
# workload end to end at a tiny size, so the instrument the serving
# path is measured with keeps building and running.
perfbench() {
	echo "== perfbench smoke test =="
	(cd perfbench && go test .)
}

case "${1:-all}" in
smoke)
	server_smoke
	exit 0
	;;
proofs)
	proofs_smoke
	exit 0
	;;
crash)
	crash_smoke
	exit 0
	;;
lint)
	lint
	exit 0
	;;
cover)
	cover
	exit 0
	;;
scenarios)
	scenarios
	exit 0
	;;
benchguard)
	benchguard
	exit 0
	;;
fuzz)
	fuzz
	exit 0
	;;
perfbench)
	perfbench
	exit 0
	;;
all) ;;
*)
	echo "usage: sh ci.sh [all|lint|fuzz|cover|scenarios|benchguard|perfbench|smoke|proofs|crash]" >&2
	exit 2
	;;
esac

lint

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

# The audit scanner tests its string bodies eight bytes at a time in a
# uint64; on 386 that is two machine words, so its tests run there too.
# An amd64 host runs 386 binaries natively (macOS no longer does).
echo "== go test ./internal/audit (GOARCH=386) =="
if [ "$(go env GOHOSTARCH)" = amd64 ] && [ "$(go env GOHOSTOS)" != darwin ]; then
	GOARCH=386 go test ./internal/audit
else
	echo "skipping: 386 tests need a non-macOS amd64 host, this is $(go env GOHOSTOS)/$(go env GOHOSTARCH)"
fi

echo "== chaos test -race =="
go test -race -run TestChaosPipeline ./internal/faultinject/

fuzz

cover

scenarios

benchguard

perfbench

server_smoke

proofs_smoke

crash_smoke
