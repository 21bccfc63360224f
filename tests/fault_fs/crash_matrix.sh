#!/usr/bin/env bash
# Fault-injection recovery matrix: kill bccs_update at EVERY durability
# write/fsync/rename/unlink it performs and prove the crash-safety contract:
#
#   - recovery always succeeds (no wedged snapshot, ever);
#   - the recovered state is a clean prefix of the update history: either
#     the state before the crashed batch or after it, never a hybrid;
#   - an ACKED batch (its fsync'd "acked" line reached the ack file, which
#     bccs_update writes only after Append returned under
#     --fsync every-append) is NEVER lost — zero acked loss;
#   - recovered query answers are bit-identical to a clean run's answers
#     for the same state;
#   - a crashed compaction fold never wedges the pipeline: a follow-up
#     clean run (append + forced fold) always succeeds, folds every
#     segment, and passes its reload verification.
#
# Matrix A enumerates crash points inside changelog appends (one rotated
# segment per record). Matrix B enumerates crash points across an
# append + forced compaction fold (snapshot tmp write, tmp fsync, rename,
# stale-segment unlink). Crash points are discovered by a probe run that
# counts the matched operations (see tests/fault_fs/fault_fs.cc).
#
# usage: crash_matrix.sh BIN_DIR FAULT_LIB [quick]
#   quick: matrix A runs one step and matrix B caps at 6 points — the
#   cheap variant tools/e2e_snapshot_test.sh tacks onto its run. Setting
#   CRASH_QUICK=1 in the environment has the same effect, which is how CI
#   trims the crash-labeled ctest without reconfiguring.
set -u

bin="${1:?usage: crash_matrix.sh BIN_DIR FAULT_LIB [quick]}"
lib="${2:?usage: crash_matrix.sh BIN_DIR FAULT_LIB [quick]}"
quick="${3:-${CRASH_QUICK:+quick}}"
[ -f "$lib" ] || { echo "FAIL: fault library $lib not found" >&2; exit 1; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"

fail() { echo "FAIL: $*" >&2; exit 1; }

UPDATE_FLAGS=(--fsync every-append --segment-blocks 1)

"$bin/bccs_generate" --communities 4 --group-size 8 --labels 2 --seed 7 \
  --out g.txt >/dev/null || fail "bccs_generate"
q1="$(awk '$1=="l" && $3==0 {print $2; exit}' g.txt)"
q2="$(awk '$1=="l" && $3==1 {print $2; exit}' g.txt)"
[ -n "$q1" ] && [ -n "$q2" ] || fail "could not pick query vertices"

# Update history: five single-edge deletions of distinct existing edges.
# Each applied batch lowers the edge count by exactly one, so the edge
# count alone identifies which prefix of the history a recovered snapshot
# contains.
awk '$1=="e" {print "- " $2 " " $3}' g.txt | head -5 > dels.txt
[ "$(wc -l < dels.txt)" -eq 5 ] || fail "graph has fewer than 5 edges"
for i in 1 2 3 4 5; do sed -n "${i}p" dels.txt > "u$i.txt"; done

mkdir ref0
"$bin/bccs_build" --graph g.txt --out ref0/w.snap >/dev/null || fail "bccs_build"

edges_of() { # $1: snapshot path -> recovered edge count on stdout, "" on failure
  "$bin/bccs_update" --snapshot "$1" --recover-only 2>/dev/null \
    | sed -n 's/^snapshot: [0-9]* vertices, \([0-9]*\) edges.*/\1/p'
}

answers_of() { # $1: snapshot path -> deterministic query lines (no timings)
  "$bin/bccs_query" --index-file "$1" --ql "$q1" --qr "$q2" --method l2p \
    | grep -E '^(community|no community)'
}

# Clean reference chain: ref_j holds the snapshot with batches u1..uj
# applied (and their live changelog segments). Its edge count and query
# answers are the ground truth a recovered state must match bit-for-bit.
declare -a edges answers
for j in 0 1 2 3 4 5; do
  if [ "$j" -gt 0 ]; then
    cp -r "ref$((j - 1))" "ref$j"
    "$bin/bccs_update" --snapshot "ref$j/w.snap" --updates "u$j.txt" \
      "${UPDATE_FLAGS[@]}" >/dev/null || fail "clean update $j"
  fi
  edges[$j]="$(edges_of "ref$j/w.snap")"
  [ -n "${edges[$j]}" ] || fail "no edge count for ref$j"
  answers[$j]="$(answers_of "ref$j/w.snap")"
done
for j in 1 2 3 4 5; do
  [ "${edges[$j]}" -eq "$(( edges[j - 1] - 1 ))" ] \
    || fail "reference edge counts are not strictly decreasing"
done

state_of_edges() { # $1: edge count -> history prefix length j, or -1
  local e="$1" j
  for j in 0 1 2 3 4 5; do
    if [ "${edges[$j]}" -eq "$e" ]; then echo "$j"; return; fi
  done
  echo "-1"
}

# Verifies a crashed work dir recovers to a clean prefix. Sets the global
# `recovered_j` to the prefix length it landed on.
recovered_j=-1
check_recovery() { # $1: step i (u_i was in flight), $2: acked 0/1, $3: label
  local i="$1" acked="$2" label="$3" e j ans
  e="$(edges_of work/w.snap)"
  [ -n "$e" ] || fail "$label: recovery failed"
  j="$(state_of_edges "$e")"
  [ "$j" -ge 0 ] || fail "$label: recovered to an unknown state ($e edges)"
  [ "$j" -eq "$((i - 1))" ] || [ "$j" -eq "$i" ] \
    || fail "$label: recovered to state $j, expected $((i - 1)) or $i"
  if [ "$acked" -eq 1 ] && [ "$j" -ne "$i" ]; then
    fail "$label: ACKED batch lost (recovered to state $j)"
  fi
  ans="$(answers_of work/w.snap)"
  [ "$ans" = "${answers[$j]}" ] \
    || fail "$label: recovered answers differ from the clean state-$j answers"
  recovered_j="$j"
}

crashed_update() { # $1: crash point, remaining: bccs_update args -> exit code
  local c="$1"
  shift
  LD_PRELOAD="$lib" FAULT_FS_MATCH=w.snap FAULT_FS_CRASH_AT="$c" \
    "$bin/bccs_update" "$@" >/dev/null 2>&1
  echo "$?"
}

probe_points() { # remaining: bccs_update args -> matched op count
  rm -f count.txt
  LD_PRELOAD="$lib" FAULT_FS_MATCH=w.snap FAULT_FS_COUNT_FILE="$tmp/count.txt" \
    "$bin/bccs_update" "$@" >/dev/null || fail "probe run failed"
  [ -s count.txt ] || fail "probe wrote no op count (is the interposer loaded?)"
  cat count.txt
}

acked_in() { # $1: work dir -> 1 if the run's ack line landed
  if [ -f "$1/acks.txt" ] && grep -q '^acked' "$1/acks.txt"; then
    echo 1
  else
    echo 0
  fi
}

# --- Matrix A: crash at every durability op inside a changelog append -----
a_steps="1 2 3"
[ "$quick" = "quick" ] && a_steps="1"
a_points=0
for i in $a_steps; do
  rm -rf probe && cp -r "ref$((i - 1))" probe
  n="$(probe_points --snapshot probe/w.snap --updates "u$i.txt" \
    "${UPDATE_FLAGS[@]}" --ack-file probe/acks.txt)"
  [ "$n" -ge 2 ] || fail "append probe $i exposed only $n crash points"
  for c in $(seq 1 "$n"); do
    rm -rf work && cp -r "ref$((i - 1))" work
    ec="$(crashed_update "$c" --snapshot work/w.snap --updates "u$i.txt" \
      "${UPDATE_FLAGS[@]}" --ack-file work/acks.txt)"
    acked="$(acked_in work)"
    case "$ec" in
      86) check_recovery "$i" "$acked" "append step $i, crash point $c" ;;
      0)  # deterministic op sequence: only the last point survives to exit
          check_recovery "$i" "$acked" "append step $i, uncrashed point $c"
          [ "$recovered_j" -eq "$i" ] \
            || fail "append step $i: uncrashed run did not complete" ;;
      *)  fail "append step $i, crash point $c: unexpected exit $ec" ;;
    esac
    a_points=$((a_points + 1))
  done
done

# --- Matrix B: crash at every durability op across append + forced fold ---
# Start from ref3 (three sealed single-record segments), append u4 and force
# a compaction fold: the op stream covers the tmp snapshot write, its fsync,
# the rename over the base, and the stale-segment unlinks.
rm -rf probe && cp -r ref3 probe
nb="$(probe_points --snapshot probe/w.snap --updates u4.txt \
  "${UPDATE_FLAGS[@]}" --compact --ack-file probe/acks.txt)"
[ "$nb" -ge 8 ] || fail "fold probe exposed only $nb crash points"
ls probe/w.snap.log.* >/dev/null 2>&1 \
  && fail "fold probe left changelog segments behind"
b_last="$nb"
[ "$quick" = "quick" ] && [ "$b_last" -gt 6 ] && b_last=6
b_points=0
for c in $(seq 1 "$b_last"); do
  rm -rf work && cp -r ref3 work
  ec="$(crashed_update "$c" --snapshot work/w.snap --updates u4.txt \
    "${UPDATE_FLAGS[@]}" --compact --ack-file work/acks.txt)"
  acked="$(acked_in work)"
  case "$ec" in
    86) check_recovery 4 "$acked" "fold crash point $c" ;;
    0)  check_recovery 4 "$acked" "fold uncrashed point $c"
        [ "$recovered_j" -eq 4 ] || fail "fold: uncrashed run did not complete" ;;
    *)  fail "fold crash point $c: unexpected exit $ec" ;;
  esac
  # The crashed fold may have left a tmp file or stale segments; a clean
  # follow-up append + forced fold must absorb them, fold everything, and
  # pass its own reload verification (bccs_update verifies by default).
  pre="$recovered_j"
  rm -f work/acks.txt
  "$bin/bccs_update" --snapshot work/w.snap --updates u5.txt \
    "${UPDATE_FLAGS[@]}" --compact --ack-file work/acks.txt >/dev/null \
    || fail "fold crash point $c: clean follow-up run failed"
  ls work/w.snap.log.* >/dev/null 2>&1 \
    && fail "fold crash point $c: segments left after a clean forced fold"
  e="$(edges_of work/w.snap)"
  [ "$e" = "$(( edges[pre] - 1 ))" ] \
    || fail "fold crash point $c: follow-up fold landed on $e edges"
  b_points=$((b_points + 1))
done

echo "crash matrix: $a_points append points + $b_points fold points, all recovered with zero acked loss"
