#!/usr/bin/env bash
# End-to-end ctest for bccs_fsck: a clean snapshot + changelog chain passes
# (exit 0), and the three canonical on-disk corruptions are flagged with the
# changelog exit code (6):
#
#   1. a bit-flipped sealed (non-tail) segment — checksum scan
#   2. a sequence gap (a segment file removed from the middle of the chain)
#   3. a stale-watermark layout (a folded segment resurrected after
#      compaction advanced the watermark past it)
#
# Also checks the usage (2) and load-failure (3) exits, and that --validate
# on bccs_build/bccs_update runs the same audits inline.
#
# usage: tests/fsck_e2e_test.sh BIN_DIR
set -euo pipefail

bin="${1:?usage: fsck_e2e_test.sh BIN_DIR}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# Expects the command to exit with $1 and its stderr to mention $2.
expect_fsck() {
  local want_code="$1" want_text="$2"; shift 2
  local out code=0
  out="$("$bin/bccs_fsck" "$@" 2>&1)" || code=$?
  [ "$code" -eq "$want_code" ] \
    || fail "bccs_fsck $* exited $code, want $want_code ($out)"
  if [ -n "$want_text" ]; then
    grep -q "$want_text" <<<"$out" \
      || fail "bccs_fsck $* output missing '$want_text': $out"
  fi
}

"$bin/bccs_generate" --communities 6 --group-size 10 --labels 2 --seed 5 \
  --out "$tmp/g.txt" >/dev/null

"$bin/bccs_build" --graph "$tmp/g.txt" --out "$tmp/g.snap" --validate >/dev/null \
  || fail "bccs_build --validate failed"

# Three single-update changelog batches with rotation after every record:
# segments 1 and 2 end up sealed, 3 is the tail.
for i in 1 2 3; do
  echo "+ 0 $((97 + i))" > "$tmp/u.txt"
  "$bin/bccs_update" --snapshot "$tmp/g.snap" --updates "$tmp/u.txt" \
    --segment-blocks 1 --validate >/dev/null \
    || fail "bccs_update batch $i failed"
done
for i in 1 2 3; do
  [ -f "$tmp/g.snap.log.00000$i" ] || fail "segment $i missing after appends"
done

expect_fsck 0 "clean" --snapshot "$tmp/g.snap"

# Usage and load-failure exits.
expect_fsck 2 "usage"
expect_fsck 3 "" --snapshot "$tmp/absent.snap"

# 1. Bit flip in the middle of sealed segment 1 -> changelog exit.
cp "$tmp/g.snap.log.000001" "$tmp/seg1.bak"
size="$(wc -c < "$tmp/g.snap.log.000001")"
printf '\xff' | dd of="$tmp/g.snap.log.000001" bs=1 seek=$((size / 2)) \
  conv=notrunc status=none
expect_fsck 6 "changelog" --snapshot "$tmp/g.snap"
cp "$tmp/seg1.bak" "$tmp/g.snap.log.000001"
expect_fsck 0 "" --snapshot "$tmp/g.snap"

# 2. Sequence gap: remove segment 2 from the middle of the chain.
cp "$tmp/g.snap.log.000002" "$tmp/seg2.bak"
rm "$tmp/g.snap.log.000002"
expect_fsck 6 "sequence gap" --snapshot "$tmp/g.snap"
cp "$tmp/seg2.bak" "$tmp/g.snap.log.000002"
expect_fsck 0 "" --snapshot "$tmp/g.snap"

# 3. Stale watermark: compact (folds the chain, advances the watermark,
# drops the segments), then resurrect a folded segment from the backup.
echo "+ 1 98" > "$tmp/u.txt"
"$bin/bccs_update" --snapshot "$tmp/g.snap" --updates "$tmp/u.txt" \
  --compact >/dev/null || fail "compacting update failed"
expect_fsck 0 "" --snapshot "$tmp/g.snap"
cp "$tmp/seg1.bak" "$tmp/g.snap.log.000001"
expect_fsck 6 "stale changelog segment" --snapshot "$tmp/g.snap"
rm "$tmp/g.snap.log.000001"

# --validate on bccs_update catches the same stale layout inline.
cp "$tmp/seg1.bak" "$tmp/g.snap.log.000001"
echo "+ 2 97" > "$tmp/u.txt"
if "$bin/bccs_update" --snapshot "$tmp/g.snap" --updates "$tmp/u.txt" \
     --validate >/dev/null 2>"$tmp/err.txt"; then
  # Recovery legitimately deletes stale segments at open, so a zero exit is
  # fine as long as the audit then passes on the cleaned layout.
  expect_fsck 0 "" --snapshot "$tmp/g.snap"
else
  grep -q "changelog" "$tmp/err.txt" || fail "unexpected bccs_update failure: $(cat "$tmp/err.txt")"
fi

echo "PASS: fsck end-to-end"
