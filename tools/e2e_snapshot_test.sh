#!/usr/bin/env bash
# End-to-end ctest: generate a tiny graph, persist a BcIndex snapshot with
# bccs_build, and check that bccs_query serves identical answers from the
# text graph and from the snapshot (single-query and batch paths), that a
# corrupted snapshot is rejected, that the serving-engine flags
# (--lane, --deadline-ms) validate and behave (mixed-lane batches report
# per-lane percentiles, bad flag values, malformed or out-of-range vertex
# ids and k values, and --queries combined with --method/--k1/--k2, are
# rejected with exit 2, --queries a,b prints the same peel as --method lp,
# a 3-label --queries --verify reports "verification: none", removed
# flags are refused, and the leader-pair peels (LP, mBCC) recount a label
# pair only on a leader rebuild), and that the dynamic update flow works:
# bccs_update appends changelog records that bccs_query replays (build ->
# update -> query-from-replayed-snapshot == query-from-updated-text-graph),
# --compact-threshold folds them,
# --updates-file applies a batch in-process, invalid update batches are
# rejected, and a legacy in-file delta chain is refused by name. The
# bccs_serve socket front-end
# (--listen) is driven over a real loopback connection: pipelined
# query/update/query with request ids answer with per-connection epoch
# views matching bccs_query on the equivalent graphs, a reconnect resending
# an applied update id gets the kept ack replayed instead of re-applying,
# and SIGTERM drains admitted items, flushes response tails, and exits 0.
#
# Registered under the ctest labels "e2e" and "sanitize" — the latter is the
# suite exercised in the ASan+UBSan preset (cmake --preset asan-ubsan).
#
# When a fault-injection library is passed as the second argument (built as
# tests/fault_fs in non-sanitized configurations), the script finishes with
# the quick crash matrix — kill-at-every-durability-write recovery checks
# (the full matrix is the ctest labeled "crash").
#
# usage: tools/e2e_snapshot_test.sh BIN_DIR [FAULT_LIB]
set -euo pipefail

bin="${1:?usage: e2e_snapshot_test.sh BIN_DIR [FAULT_LIB]}"
fault_lib="${2:-}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

"$bin/bccs_generate" --communities 4 --group-size 10 --labels 2 --seed 3 \
  --out "$tmp/g.txt" >/dev/null

"$bin/bccs_build" --graph "$tmp/g.txt" --out "$tmp/g.snap" >/dev/null \
  || fail "bccs_build failed"
[ -s "$tmp/g.snap" ] || fail "snapshot file missing or empty"

# Two query vertices of different labels (the first of each label group).
q1="$(awk '$1=="l" && $3==0 {print $2; exit}' "$tmp/g.txt")"
q2="$(awk '$1=="l" && $3==1 {print $2; exit}' "$tmp/g.txt")"
[ -n "$q1" ] && [ -n "$q2" ] || fail "could not pick query vertices"

run_query() { # $1: --graph/--index-file source args...
  "$bin/bccs_query" "$@" --ql "$q1" --qr "$q2" --method l2p \
    | grep -E '^(community|no community)' || true
}

from_graph="$(run_query --graph "$tmp/g.txt")"
from_snap="$(run_query --index-file "$tmp/g.snap")"
[ -n "$from_graph" ] || fail "no query output from the text-graph path"
[ "$from_graph" = "$from_snap" ] \
  || fail "snapshot answers differ: '$from_graph' vs '$from_snap'"

# Batch path: the snapshot-backed index is shared across worker threads.
printf '%s %s\n%s %s\n' "$q1" "$q2" "$q2" "$q1" > "$tmp/batch.txt"
batch_graph="$("$bin/bccs_query" --graph "$tmp/g.txt" --batch-file "$tmp/batch.txt" \
  --method l2p --threads 2 --repeat 3 | grep -E '^  \[')"
batch_snap="$("$bin/bccs_query" --index-file "$tmp/g.snap" --batch-file "$tmp/batch.txt" \
  --method l2p --threads 2 --repeat 3 | grep -E '^  \[')"
[ -n "$batch_graph" ] || fail "no batch output"
[ "$batch_graph" = "$batch_snap" ] || fail "batch answers differ"

# Index-backed Find-G0 (DESIGN.md contract 10): from --graph alone,
# online/lp/mBCC have no index and peel each query group; from
# --index-file they read the groups' coreness from the snapshot's index.
# The community lines must be byte-identical between the two.
for method in online lp; do
  peeled="$("$bin/bccs_query" --graph "$tmp/g.txt" --ql "$q1" --qr "$q2" --method "$method" \
    | grep -E '^(community|no community)' || true)"
  indexed="$("$bin/bccs_query" --index-file "$tmp/g.snap" --ql "$q1" --qr "$q2" \
    --method "$method" | grep -E '^(community|no community)' || true)"
  [ -n "$peeled" ] || fail "no $method output from the text-graph path"
  [ "$peeled" = "$indexed" ] \
    || fail "index-backed $method differs: '$peeled' vs '$indexed'"
done
batch_peeled="$("$bin/bccs_query" --graph "$tmp/g.txt" --batch-file "$tmp/batch.txt" \
  --method lp --threads 2 | grep -E '^  \[')"
batch_indexed="$("$bin/bccs_query" --index-file "$tmp/g.snap" --batch-file "$tmp/batch.txt" \
  --method lp --threads 2 | grep -E '^  \[')"
[ -n "$batch_peeled" ] || fail "no lp batch output"
[ "$batch_peeled" = "$batch_indexed" ] || fail "index-backed lp batch answers differ"
"$bin/bccs_generate" --communities 4 --group-size 10 --labels 3 --groups 3 --seed 5 \
  --out "$tmp/m.txt" >/dev/null
"$bin/bccs_build" --graph "$tmp/m.txt" --out "$tmp/m.snap" >/dev/null \
  || fail "bccs_build (3 labels) failed"
mq="$(for l in 0 1 2; do awk -v l="$l" '$1=="l" && $3==l {print $2; exit}' "$tmp/m.txt"; done \
  | paste -sd,)"
mbcc_out="$("$bin/bccs_query" --graph "$tmp/m.txt" --queries "$mq" --verify || true)"
mbcc_peeled="$(grep -E '^(community|no community)' <<< "$mbcc_out" || true)"
# --verify checks every --queries answer (VerifyMbcc), whatever m is.
grep -qx "verification: none" <<< "$mbcc_out" \
  || fail "3-label --queries --verify did not print 'verification: none'"
mbcc_indexed="$("$bin/bccs_query" --index-file "$tmp/m.snap" --queries "$mq" \
  | grep -E '^(community|no community)' || true)"
[ -n "$mbcc_peeled" ] || fail "no mBCC output from the text-graph path"
[ "$mbcc_peeled" = "$mbcc_indexed" ] \
  || fail "index-backed mBCC differs: '$mbcc_peeled' vs '$mbcc_indexed'"

# Two-label BCC is the m = 2 call of the mBCC peel engine: --queries a,b
# prints the same community, rounds and counting lines as --method lp.
peel_lines() { grep -E '^(community|no community|rounds=|counting:)' | sed 's/ time=[^ ]*//'; }
lp_pair="$("$bin/bccs_query" --graph "$tmp/g.txt" --method lp --ql "$q1" --qr "$q2" | peel_lines)"
mbcc_pair="$("$bin/bccs_query" --graph "$tmp/g.txt" --queries "$q1,$q2" | peel_lines)"
grep -q '^rounds=' <<< "$lp_pair" || fail "no rounds line from --method lp"
[ "$lp_pair" = "$mbcc_pair" ] \
  || fail "--queries a,b differs from --method lp: '$mbcc_pair' vs '$lp_pair'"

# --repeat 0 must be rejected like negative values, not run a zero-query batch.
if "$bin/bccs_query" --graph "$tmp/g.txt" --ql "$q1" --qr "$q2" --repeat 0 \
    >/dev/null 2>&1; then
  fail "--repeat 0 was accepted"
fi

# A snapshot must not silently serve a graph that changed on disk: editing
# the graph invalidates the source stamp, forcing a rebuild that restamps
# the snapshot.
printf '# edited after snapshot\n' >> "$tmp/g.txt"
"$bin/bccs_query" --graph "$tmp/g.txt" --index-file "$tmp/g.snap" \
  --ql "$q1" --qr "$q2" --method l2p >/dev/null 2>"$tmp/stale.err" \
  || fail "query with a stale snapshot failed"
grep -q "stale" "$tmp/stale.err" || fail "stale snapshot was not detected"
"$bin/bccs_query" --graph "$tmp/g.txt" --index-file "$tmp/g.snap" \
  --ql "$q1" --qr "$q2" --method l2p >/dev/null 2>"$tmp/restamp.err" \
  || fail "query with the restamped snapshot failed"
if grep -q "stale" "$tmp/restamp.err"; then
  fail "restamped snapshot still reported stale"
fi

# A corrupted snapshot must be rejected, not served.
cp "$tmp/g.snap" "$tmp/bad.snap"
printf '\x5a' | dd of="$tmp/bad.snap" bs=1 seek=100 conv=notrunc 2>/dev/null
if "$bin/bccs_query" --index-file "$tmp/bad.snap" --ql "$q1" --qr "$q2" \
    --method l2p >/dev/null 2>&1; then
  fail "corrupted snapshot was accepted"
fi

# --- Serving engine flags ---------------------------------------------------

# Unknown methods are rejected upfront with the list of valid ones.
if "$bin/bccs_query" --graph "$tmp/g.txt" --ql "$q1" --qr "$q2" \
    --method bogus >/dev/null 2>"$tmp/method.err"; then
  fail "unknown method was accepted"
fi
grep -q "valid methods" "$tmp/method.err" || fail "usage did not list valid methods"

# --deadline-ms must be a positive integer; the count and
# parameter flags (--threads, --k1/--k2, --b, --result-cache)
# share the same strict numeric contract instead of silently falling back on
# garbage.
for bad in "--deadline-ms 0" "--deadline-ms -3" "--deadline-ms abc" \
           "--threads -1" "--threads abc" "--threads 1.5" \
           "--k1 -2" "--k2 xyz" "--b 0" "--b -1" "--b abc" \
           "--result-cache -1" "--result-cache abc" "--result-cache 1.5"; do
  # shellcheck disable=SC2086
  if "$bin/bccs_query" --graph "$tmp/g.txt" --ql "$q1" --qr "$q2" $bad \
      >/dev/null 2>&1; then
    fail "invalid flag value accepted: $bad"
  fi
done

# A typo'd huge --threads is clamped to the hardware, not spawned.
"$bin/bccs_query" --graph "$tmp/g.txt" --ql "$q1" --qr "$q2" --repeat 2 \
  --threads 99999 >/dev/null 2>"$tmp/clamp.err" || fail "clamped thread count failed"
grep -q "clamped to hardware concurrency" "$tmp/clamp.err" \
  || fail "huge --threads was not clamped"
if "$bin/bccs_query" --graph "$tmp/g.txt" --ql "$q1" --qr "$q2" \
    --lane sideways >/dev/null 2>&1; then
  fail "invalid lane was accepted"
fi

# Mixed-lane batch (per-line lane column) reports per-lane percentiles and
# serves every query within a generous deadline.
printf '%s %s interactive\n%s %s bulk\n%s %s\n' \
  "$q1" "$q2" "$q2" "$q1" "$q1" "$q2" > "$tmp/lanes.txt"
lanes_out="$("$bin/bccs_query" --graph "$tmp/g.txt" --batch-file "$tmp/lanes.txt" \
  --threads 2 --deadline-ms 10000 --lane bulk)"
grep -q "lane interactive" <<< "$lanes_out" || fail "no interactive lane summary"
grep -q "lane bulk" <<< "$lanes_out" || fail "no bulk lane summary"
grep -q "0 timed out" <<< "$lanes_out" || fail "generous deadline timed out"

# Vertex ids and k values are parsed strictly and range-checked before
# narrowing to 32 bits: garbage, 2^32 + id and k > 2^32 - 1 all exit 2 with
# a message instead of aborting or running as a different query.
big_id=$((4294967296 + q2))
expect_exit2() { # $1: tool, $2: expected stderr fragment, rest: args
  local tool="$1" want="$2" rc=0
  shift 2
  "$bin/$tool" "$@" </dev/null >/dev/null 2>"$tmp/exit2.err" || rc=$?
  [ "$rc" -eq 2 ] || fail "$tool $* exited $rc, want 2"
  grep -q -- "$want" "$tmp/exit2.err" || fail "$tool $* did not report '$want'"
}
expect_exit2 bccs_query "unknown flag: --cache-bytes" --graph "$tmp/g.txt" --cache-bytes 1
expect_exit2 bccs_query "'abc' is not a vertex id" \
  --graph "$tmp/g.txt" --queries "$q1,abc"
expect_exit2 bccs_query "'$big_id' is not a vertex id" \
  --graph "$tmp/g.txt" --queries "$q1,$big_id"
expect_exit2 bccs_query "'$big_id' is not a vertex id" \
  --graph "$tmp/g.txt" --ql "$q1" --qr "$big_id"
expect_exit2 bccs_query "'$big_id' is not a vertex id" \
  --graph "$tmp/g.txt" --ql "$q1" --qr "$big_id" --repeat 2
expect_exit2 bccs_query "at most 4294967295" \
  --graph "$tmp/g.txt" --ql "$q1" --qr "$q2" --k1 4294967298
expect_exit2 bccs_query "at most 4294967295" \
  --graph "$tmp/g.txt" --ql "$q1" --qr "$q2" --k2 4294967298
expect_exit2 bccs_serve "at most 4294967295" --graph "$tmp/g.txt" --k1 4294967298
expect_exit2 bccs_serve "at most 4294967295" --graph "$tmp/g.txt" --k2 4294967298
# --queries runs mBCC with auto k and the engine's mBCC options, so the
# two-label method and core flags are rejected instead of ignored.
expect_exit2 bccs_query "--method does not apply to --queries" \
  --graph "$tmp/g.txt" --queries "$q1,$q2" --method online
expect_exit2 bccs_query "--k1 does not apply to --queries" \
  --graph "$tmp/g.txt" --queries "$q1,$q2" --k1 1
expect_exit2 bccs_query "--k2 does not apply to --queries" \
  --graph "$tmp/g.txt" --queries "$q1,$q2" --k2 1

# The sampled butterfly check is gone: both tools reject its flag as unknown.
expect_exit2 bccs_query "unknown flag: --approx-samples" \
  --graph "$tmp/g.txt" --ql "$q1" --qr "$q2" --approx-samples 64
expect_exit2 bccs_serve "unknown flag: --approx-samples" \
  --graph "$tmp/g.txt" --approx-samples 64

# So is the incremental butterfly counter: every leaderless peel round
# recounts, and the switch that chose between the two checks is gone.
expect_exit2 bccs_query "unknown flag: --no-incremental-butterflies" \
  --graph "$tmp/g.txt" --ql "$q1" --qr "$q2" --no-incremental-butterflies
expect_exit2 bccs_serve "unknown flag: --no-incremental-butterflies" \
  --graph "$tmp/g.txt" --no-incremental-butterflies

# --- Butterfly validity checks ----------------------------------------------

# The batch summary carries the per-phase breakdown.
phases_out="$("$bin/bccs_query" --graph "$tmp/g.txt" --batch-file "$tmp/lanes.txt" \
  --threads 1)"
grep -q '^phases: .*butterfly=.*leader=' <<< "$phases_out" \
  || fail "no per-phase breakdown in batch output"

# Leader-pair peels (LP, mBCC) validate with the two leaders alone and count
# a label pair's butterflies (Algorithm 3) once up front and again only on a
# leader rebuild (the paper's Table 4): calls = pairs + leader_rebuilds. The
# LP and mBCC queries below rebuild a leader at least once, so a per-round
# recount would break the equation.
counting_of() { "$bin/bccs_query" "$@" | sed -n 's/^counting: //p'; }
expect_calls() { # $1: search name, $2: label pairs, $3: counting line
  local calls rebuilds
  calls="$(sed -n 's/.*calls=\([0-9]*\).*/\1/p' <<< "$3")"
  rebuilds="$(sed -n 's/.*leader_rebuilds=\([0-9]*\).*/\1/p' <<< "$3")"
  [ -n "$calls" ] && [ -n "$rebuilds" ] && [ "$calls" -eq $(($2 + rebuilds)) ] \
    || fail "$1 counted beyond its leader rebuilds (want calls=$2+leader_rebuilds): '$3'"
}
"$bin/bccs_generate" --communities 4 --group-size 10 --labels 2 --seed 5 \
  --out "$tmp/r.txt" >/dev/null
rq1="$(awk '$1=="l" && $3==0 {print $2; exit}' "$tmp/r.txt")"
rq2="$(awk '$1=="l" && $3==1 {print $2; exit}' "$tmp/r.txt")"
lp_counting="$(counting_of --graph "$tmp/r.txt" --ql "$rq1" --qr "$rq2" --method lp \
  --k1 1 --k2 1)"
grep -Eq 'leader_rebuilds=[1-9]' <<< "$lp_counting" \
  || fail "LP guard query rebuilt no leader: '$lp_counting'"
expect_calls LP 1 "$lp_counting"
"$bin/bccs_generate" --communities 4 --group-size 10 --labels 3 --groups 3 --seed 8 \
  --out "$tmp/r3.txt" >/dev/null
rmq="$(for l in 0 1 2; do awk -v l="$l" '$1=="l" && $3==l {print $2; exit}' "$tmp/r3.txt"; done \
  | paste -sd,)"
mbcc_counting="$(counting_of --graph "$tmp/r3.txt" --queries "$rmq" --b 1)"
grep -Eq 'leader_rebuilds=[1-9]' <<< "$mbcc_counting" \
  || fail "mBCC guard query rebuilt no leader: '$mbcc_counting'"
expect_calls mBCC 3 "$mbcc_counting"

# --- Dynamic graphs: changelog + --updates-file -----------------------------

# Delete one existing edge through bccs_update: one changelog record is
# appended next to the snapshot (no payload rewrite) and the updated graph
# written as text.
eu="$(awk '$1=="e" {print $2; exit}' "$tmp/g.txt")"
ev="$(awk '$1=="e" {print $3; exit}' "$tmp/g.txt")"
[ -n "$eu" ] && [ -n "$ev" ] || fail "could not pick an edge to delete"
printf -- '- %s %s\n' "$eu" "$ev" > "$tmp/updates.txt"
"$bin/bccs_update" --snapshot "$tmp/g.snap" --updates "$tmp/updates.txt" \
  --write-graph "$tmp/g2.txt" >/dev/null || fail "bccs_update failed"

# build -> update -> query-from-replayed-snapshot: the replayed snapshot
# must answer exactly like the updated text graph.
upd_snap="$(run_query --index-file "$tmp/g.snap")"
upd_graph="$(run_query --graph "$tmp/g2.txt")"
[ -n "$upd_graph" ] || fail "no output from the updated text graph"
[ "$upd_snap" = "$upd_graph" ] \
  || fail "replayed snapshot answers differ: '$upd_snap' vs '$upd_graph'"

# The record re-stamped the snapshot with g2.txt's identity, so the
# combined path accepts it without a rebuild.
"$bin/bccs_query" --graph "$tmp/g2.txt" --index-file "$tmp/g.snap" \
  --ql "$q1" --qr "$q2" --method l2p >/dev/null 2>"$tmp/upd_stamp.err" \
  || fail "query with the re-stamped updated snapshot failed"
if grep -qE "stale|rebuild" "$tmp/upd_stamp.err"; then
  fail "re-stamped updated snapshot was not accepted"
fi

# --updates-file: applying the batch in-process over the original graph
# must answer exactly like the updated text graph.
upd_flag="$("$bin/bccs_query" --graph "$tmp/g.txt" --updates-file "$tmp/updates.txt" \
  --ql "$q1" --qr "$q2" --method lp | grep -E '^(community|no community)')" || true
upd_graph_lp="$("$bin/bccs_query" --graph "$tmp/g2.txt" --ql "$q1" --qr "$q2" \
  --method lp | grep -E '^(community|no community)')" || true
[ -n "$upd_flag" ] || fail "no output from --updates-file"
[ "$upd_flag" = "$upd_graph_lp" ] \
  || fail "--updates-file answers differ: '$upd_flag' vs '$upd_graph_lp'"

# Re-inserting the deleted edge appends a second record; the replayed
# state is back to the original graph and answers match the very first run.
printf -- '+ %s %s\n' "$eu" "$ev" > "$tmp/updates2.txt"
"$bin/bccs_update" --snapshot "$tmp/g.snap" --updates "$tmp/updates2.txt" \
  >/dev/null || fail "second bccs_update failed"
roundtrip="$(run_query --index-file "$tmp/g.snap")"
[ "$roundtrip" = "$from_graph" ] \
  || fail "delete+insert round trip changed answers: '$roundtrip' vs '$from_graph'"

# Invalid update batches are rejected with the offending update named.
printf -- '- 0 0\n' > "$tmp/bad_updates.txt"
if "$bin/bccs_update" --snapshot "$tmp/g.snap" --updates "$tmp/bad_updates.txt" \
    >/dev/null 2>"$tmp/bad_upd.err"; then
  fail "invalid update batch was accepted by bccs_update"
fi
grep -q "update #0" "$tmp/bad_upd.err" || fail "invalid update not named"
if "$bin/bccs_query" --graph "$tmp/g.txt" --updates-file "$tmp/bad_updates.txt" \
    --ql "$q1" --qr "$q2" >/dev/null 2>&1; then
  fail "invalid update batch was accepted by bccs_query"
fi

# --compact folds the changelog into a rewritten payload; answers hold.
"$bin/bccs_update" --snapshot "$tmp/g.snap" --updates "$tmp/updates.txt" \
  --compact >/dev/null || fail "bccs_update --compact failed"
compacted="$(run_query --index-file "$tmp/g.snap")"
[ "$compacted" = "$upd_graph" ] \
  || fail "compacted snapshot answers differ: '$compacted' vs '$upd_graph'"

# --- Compaction policy: --compact-threshold ---------------------------------

# A fresh snapshot of the updated graph; two single-edge appends, each in
# its own sealed segment (--segment-blocks 1), under --compact-threshold 2:
# the first leaves one sealed segment, the second reaches the threshold and
# folds both through the compactor.
"$bin/bccs_build" --graph "$tmp/g2.txt" --out "$tmp/g3.snap" >/dev/null \
  || fail "bccs_build for the compaction policy failed"
e2u="$(awk '$1=="e" {print $2}' "$tmp/g2.txt" | sed -n 2p)"
e2v="$(awk '$1=="e" {print $3}' "$tmp/g2.txt" | sed -n 2p)"
[ -n "$e2u" ] && [ -n "$e2v" ] || fail "could not pick a second edge"
printf -- '- %s %s\n' "$e2u" "$e2v" > "$tmp/ac1.txt"
printf -- '+ %s %s\n' "$e2u" "$e2v" > "$tmp/ac2.txt"

if "$bin/bccs_update" --snapshot "$tmp/g3.snap" --updates "$tmp/ac1.txt" \
    --compact-threshold 0 >/dev/null 2>&1; then
  fail "--compact-threshold 0 was accepted"
fi

ac1_out="$("$bin/bccs_update" --snapshot "$tmp/g3.snap" --updates "$tmp/ac1.txt" \
  --segment-blocks 1 --compact-threshold 2)" || fail "first threshold update failed"
grep -q "compacted" <<< "$ac1_out" && fail "compaction fired below the threshold"
ac2_out="$("$bin/bccs_update" --snapshot "$tmp/g3.snap" --updates "$tmp/ac2.txt" \
  --segment-blocks 1 --compact-threshold 2)" || fail "second threshold update failed"
grep -q "^compacted: folded segments through 2 " <<< "$ac2_out" \
  || fail "compaction did not fire at the threshold: $ac2_out"
ls "$tmp"/g3.snap.log.* >/dev/null 2>&1 && fail "folded segments left behind"
# The folded snapshot replays nothing and serves the delete+insert round
# trip (== g2) exactly like the text graph.
ac3_out="$("$bin/bccs_update" --snapshot "$tmp/g3.snap" --recover-only)" \
  || fail "recover-only after the fold failed"
grep -q "0 replayed updates (0 changelog records in 0 live segments)" <<< "$ac3_out" \
  || fail "folded snapshot still replays updates: $ac3_out"
folded="$(run_query --index-file "$tmp/g3.snap")"
[ "$folded" = "$upd_graph" ] \
  || fail "folded snapshot answers differ: '$folded' vs '$upd_graph'"

# The removed chain-era flags are unknown now (usage error, exit 2).
for gone in "--auto-compact 1" "--changelog"; do
  rc=0
  # shellcheck disable=SC2086
  "$bin/bccs_update" --snapshot "$tmp/g3.snap" --updates "$tmp/ac1.txt" $gone \
    >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || fail "bccs_update $gone exited $rc, want 2"
done

# A snapshot carrying a legacy in-file delta chain (one empty 40-byte
# "BCCSDLT1" block after the payload) is refused by name, with the remedy.
cp "$tmp/g3.snap" "$tmp/legacy.snap"
{ printf 'BCCSDLT1'; head -c 32 /dev/zero; } >> "$tmp/legacy.snap"
rc=0
"$bin/bccs_update" --snapshot "$tmp/legacy.snap" --recover-only \
  >/dev/null 2>"$tmp/legacy.err" || rc=$?
[ "$rc" -eq 1 ] || fail "legacy chain --recover-only exited $rc, want 1"
grep -q "legacy in-file delta chain.*bccs_build" "$tmp/legacy.err" \
  || fail "legacy chain not named: $(cat "$tmp/legacy.err")"

# --- Streaming serve loop: bccs_serve ---------------------------------------

# A mixed stream over the original graph: the pre-update query runs in
# epoch 1, the update publishes epoch 2 (prepared off-thread against a
# pinned copy-on-write epoch), and the post-update queries observe it.
printf 'q %s %s interactive\nu - %s %s\nq %s %s bulk\nq %s %s\n' \
  "$q1" "$q2" "$eu" "$ev" "$q1" "$q2" "$q2" "$q1" > "$tmp/stream.txt"
serve_out="$("$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/stream.txt" \
  --threads 2 --bulk-cap 1)" || fail "bccs_serve failed"
grep -q '^\[0\] epoch=1 query' <<< "$serve_out" || fail "pre-update query not in epoch 1"
grep -q '^\[1\] epoch=2 update -' <<< "$serve_out" || fail "update did not publish epoch 2"
grep -q '^\[2\] epoch=2 query' <<< "$serve_out" || fail "post-update query not in epoch 2"
grep -q 'final epoch 2' <<< "$serve_out" || fail "final epoch wrong"
grep -q 'lane interactive' <<< "$serve_out" || fail "no interactive lane summary"

# The post-update answer equals serving the updated text graph directly.
serve_members="$(echo "$serve_out" | sed -n 's/^\[2\].*-> \([0-9]*\) members.*/\1/p')"
graph_members="$("$bin/bccs_query" --graph "$tmp/g2.txt" --ql "$q1" --qr "$q2" \
  --method lp | sed -n 's/^community (\([0-9]*\) members.*/\1/p')"
[ -n "$serve_members" ] || fail "no member count in bccs_serve output"
[ "$serve_members" = "$graph_members" ] \
  || fail "streamed post-update answer differs: $serve_members vs $graph_members"

# Malformed stream lines (trailing tokens included, as the wire codec
# parses them) and invalid numeric flags are rejected upfront.
for bad in 'x nonsense' "q $q1 $q2 bulk extra" "u - $eu $ev junk" 'ping'; do
  printf '%s\n' "$bad" > "$tmp/bad_stream.txt"
  if "$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/bad_stream.txt" \
      >/dev/null 2>&1; then
    fail "malformed stream line was accepted: $bad"
  fi
done
if "$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/stream.txt" \
    --bulk-cap -1 >/dev/null 2>&1; then
  fail "negative --bulk-cap was accepted"
fi
for bad in "--result-cache -1" "--result-cache abc"; do
  # shellcheck disable=SC2086
  if "$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/stream.txt" $bad \
      >/dev/null 2>&1; then
    fail "invalid cache flag value accepted by bccs_serve: $bad"
  fi
done
expect_exit2 bccs_serve "unknown flag: --cache-bytes" --graph "$tmp/g.txt" --cache-bytes 1

# A cached serve run answers identically to the uncached one above and
# reports its hit/miss counters in the shutdown summary.
cached_out="$("$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/stream.txt" \
  --result-cache 64 --method lp)" || fail "cached bccs_serve failed"
cached_members="$(printf '%s\n' "$cached_out" \
  | sed -n 's/^\[2\].*-> \([0-9]*\) members.*/\1/p')"
[ "$cached_members" = "$serve_members" ] \
  || fail "cached streamed answer differs: $cached_members vs $serve_members"
grep -q "^cache: result " <<< "$cached_out" \
  || fail "cached bccs_serve printed no cache summary"

# --- Socket front-end: bccs_serve --listen -----------------------------------

# Bad-flag matrix: server flags validate strictly and in combination.
for bad_args in "--listen abc" "--listen -1" "--listen 65536" \
                "--listen 0 --max-connections 0" \
                "--listen 0 --max-connections -2" \
                "--listen 0 --max-connections abc" \
                "--max-connections 4" \
                "--listen 0 --stream $tmp/stream.txt"; do
  # shellcheck disable=SC2086
  if "$bin/bccs_serve" --graph "$tmp/g.txt" $bad_args >/dev/null 2>&1; then
    fail "invalid --listen flag combination accepted: $bad_args"
  fi
done

# Live server on an ephemeral port, driven by a scripted bash /dev/tcp
# client: pipelined query/update/query with request ids, answers matching
# bccs_query on the equivalent graphs, then idempotent-retry and SIGTERM
# drain checks.
"$bin/bccs_serve" --graph "$tmp/g.txt" --listen 0 --threads 2 \
  > "$tmp/serve_net.log" 2>&1 &
net_pid=$!
net_port=""
for _ in $(seq 1 100); do
  net_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$tmp/serve_net.log")"
  [ -n "$net_port" ] && break
  sleep 0.1
done
[ -n "$net_port" ] || { kill "$net_pid" 2>/dev/null; fail "server printed no port"; }

exec 9<>"/dev/tcp/127.0.0.1/$net_port" || fail "cannot connect to $net_port"
printf 'ping\nq %s %s interactive id=1\nu - %s %s id=2\nq %s %s id=3\nquit\n' \
  "$q1" "$q2" "$eu" "$ev" "$q1" "$q2" >&9
net_resp="$(timeout 60 cat <&9)" || fail "no response from the socket server"
exec 9<&- 9>&- || true
grep -q '^pong$' <<< "$net_resp" || fail "no pong: $net_resp"
grep -q '^ok 1 q epoch=1 ' <<< "$net_resp" || fail "pre-update query wrong: $net_resp"
grep -q '^ok 2 u epoch=2 +0 -1$' <<< "$net_resp" || fail "update ack wrong: $net_resp"
grep -q '^ok 3 q epoch=2 ' <<< "$net_resp" || fail "post-update query wrong: $net_resp"
# The post-update community size equals querying the updated text graph.
net_members="$(echo "$net_resp" | sed -n 's/^ok 3 q epoch=2 n=\([0-9]*\) .*/\1/p')"
[ "$net_members" = "$graph_members" ] \
  || fail "socket answer differs from bccs_query: $net_members vs $graph_members"

# Idempotent retry: a reconnect resending the applied update's id replays
# the kept ack bit-identically — it must NOT re-apply (a re-executed delete
# of the now-missing edge would answer "rej").
exec 9<>"/dev/tcp/127.0.0.1/$net_port" || fail "cannot reconnect"
printf 'u - %s %s id=2\nquit\n' "$eu" "$ev" >&9
retry_resp="$(timeout 60 cat <&9)" || fail "no response to the retried update"
exec 9<&- 9>&- || true
grep -q '^ok 2 u epoch=2 +0 -1$' <<< "$retry_resp" \
  || fail "retried update id was not replayed: $retry_resp"

# SIGTERM: drain admitted items, flush tails, exit 0 with the summaries.
kill -TERM "$net_pid"
net_rc=0
wait "$net_pid" || net_rc=$?
[ "$net_rc" -eq 0 ] || fail "--listen SIGTERM exit code $net_rc"
grep -q 'signal 15: drained' "$tmp/serve_net.log" || fail "no drain line in server log"
grep -q '^net: 2 connections accepted' "$tmp/serve_net.log" \
  || fail "no net summary in server log"
grep -q 'replayed' "$tmp/serve_net.log" || fail "no retry summary in server log"
grep -q '^served 3 items (1 updates, 1 applied)' "$tmp/serve_net.log" \
  || fail "wrong served summary: $(grep '^served' "$tmp/serve_net.log")"
grep -q 'final epoch 2' "$tmp/serve_net.log" \
  || fail "retry double-applied: $(grep '^served' "$tmp/serve_net.log")"

# --- Crash-safe durability: changelog append, restart replay, fault matrix --

# A durable serve run appends its applied update to a rotated changelog
# segment; a restart replays it and answers from the recovered state.
"$bin/bccs_build" --graph "$tmp/g.txt" --out "$tmp/g4.snap" >/dev/null \
  || fail "bccs_build for durability failed"
printf 'u - %s %s\nq %s %s\n' "$eu" "$ev" "$q1" "$q2" > "$tmp/dstream.txt"
dur_out="$("$bin/bccs_serve" --index-file "$tmp/g4.snap" --stream "$tmp/dstream.txt" \
  --fsync every-append --segment-blocks 1 --threads 2)" \
  || fail "durable bccs_serve failed"
grep -q 'durable: 1 updates appended' <<< "$dur_out" \
  || fail "durable serve summary missing"
ls "$tmp"/g4.snap.log.* >/dev/null 2>&1 || fail "no changelog segment written"

printf 'q %s %s\n' "$q1" "$q2" > "$tmp/dstream2.txt"
re_out="$("$bin/bccs_serve" --index-file "$tmp/g4.snap" --stream "$tmp/dstream2.txt" \
  --threads 1)" || fail "restart bccs_serve failed"
grep -q 'recovery: 1 updates replayed' <<< "$re_out" \
  || fail "restart did not replay the changelog"
re_members="$(echo "$re_out" | sed -n 's/^\[0\].*-> \([0-9]*\) members.*/\1/p')"
[ "$re_members" = "$graph_members" ] \
  || fail "recovered answer differs: $re_members vs $graph_members"

# Durability flags demand a writable snapshot to append to.
if "$bin/bccs_serve" --graph "$tmp/g.txt" --stream "$tmp/dstream2.txt" \
    --fsync every-append >/dev/null 2>&1; then
  fail "--fsync without --index-file was accepted"
fi

# Quick fault-injection matrix: kill bccs_update at durability write points
# and check zero acked loss + clean-prefix recovery. Skipped in sanitized
# builds (no interposer library); `ctest -L crash` runs the full matrix.
if [ -n "$fault_lib" ] && [ -f "$fault_lib" ]; then
  script_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
  "$script_dir/../tests/fault_fs/crash_matrix.sh" "$bin" "$fault_lib" quick \
    >/dev/null || fail "quick crash matrix failed"
fi

echo "e2e snapshot test passed"
