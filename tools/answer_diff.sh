#!/usr/bin/env bash
# Answer-identity check against a base revision: every query path of
# bccs_query must print the same communities in the working tree as in BASE.
#
# usage: tools/answer_diff.sh BASE
#
# Builds bccs_generate, bccs_build and bccs_query from a `git archive BASE`
# copy and from the working tree (both under one `mktemp -d`; set TMPDIR to
# move it), generates the orkut and livejournal-m stand-ins, snapshots them
# with each side's bccs_build, and runs on both sides:
#   - orkut single queries (lp from --graph; lp, online and l2p from
#     --index-file), printing every member;
#   - orkut --batch-file runs of lp, online and l2p at --threads 1 and 4, in
#     batches of 10 so that every community size is printed;
#   - livejournal-m mBCC --queries from --graph and from --index-file.
# Query vertices come from the generators' ground truth: one member of each
# of a community's first two (three for mBCC) label groups. Timings are
# stripped; everything else a run prints about its answers (members,
# sizes, rounds, counting calls) must match. Exits non-zero on any
# difference or failed run.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi
queries=20  # per graph
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
base_sha="$(git -C "$repo_root" rev-parse --verify "$1^{commit}")"
jobs="$(nproc 2>/dev/null || echo 2)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base-src" "$tmp/data" "$tmp/out"
git -C "$repo_root" archive "$base_sha" | tar -x -C "$tmp/base-src"

build() {  # build SRC_DIR BUILD_DIR
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$2" -j "$jobs" --target bccs_generate bccs_build bccs_query >/dev/null
}
echo "building base ${base_sha:0:12} and the working tree"
build "$tmp/base-src" "$tmp/base"
build "$repo_root" "$tmp/head"

data="$tmp/data"
for ds in orkut livejournal-m; do
  "$tmp/base/bccs_generate" --dataset "$ds" --out "$data/$ds.txt" --truth "$data/$ds.truth" \
    >/dev/null
done

# pick_queries GRAPH TRUTH GROUPS SEP: one line per community (the first
# $queries that span GROUPS labels), GROUPS vertex ids joined by SEP, taken
# from the community's first GROUPS label groups at varying positions.
pick_queries() {
  awk -v groups="$3" -v sep="$4" -v limit="$queries" '
    NR == FNR { if ($1 == "l") label[$2] = $3; next }
    /^#/ { next }
    {
      n = 0; delete size; delete order
      for (i = 1; i <= NF; ++i) {
        l = label[$i]
        if (!(l in size)) { order[n++] = l; size[l] = 0 }
        member[l, size[l]++] = $i
      }
      if (n < groups) next
      line = ""
      for (j = 0; j < groups; ++j) {
        l = order[j]
        line = line (j ? sep : "") member[l, (row * (2 * j + 1)) % size[l]]
      }
      print line
      ++row
      if (row >= limit) exit
    }' "$1" "$2"
}
pick_queries "$data/orkut.txt" "$data/orkut.truth" 2 " " >"$data/pairs.txt"
pick_queries "$data/livejournal-m.txt" "$data/livejournal-m.truth" 3 "," >"$data/triples.txt"
split -l 10 -d "$data/pairs.txt" "$data/batch."

# Keeps what a run says about its answers; drops timings and load banners.
answers() {
  sed -n -e 's/ time=[0-9.e+-]*s\{0,1\}//' \
    -e '/^community (/p' -e '/^no community found/p' -e '/^deadline expired/p' \
    -e '/^rounds=/p' -e '/^batch: /p' -e '/^counting: /p' -e '/^  \[/p'
}

# query CMD...: the answers of one run, then its exit status (bccs_query
# exits 1 when it finds no community, so a status is an answer too).
query() {
  local status=0
  "$@" >"$tmp/run.txt" || status=$?
  answers <"$tmp/run.txt"
  echo "exit=$status"
}

run_side() {  # run_side SIDE
  local bin="$tmp/$1" out="$tmp/out/$1.txt"
  "$bin/bccs_build" --graph "$data/orkut.txt" --out "$data/orkut.$1.snap" >/dev/null
  "$bin/bccs_build" --graph "$data/livejournal-m.txt" --out "$data/livejournal-m.$1.snap" \
    >/dev/null
  local ork=(--index-file "$data/orkut.$1.snap")
  local lj=(--index-file "$data/livejournal-m.$1.snap")
  : >"$out"
  while read -r ql qr; do
    for mode in "--graph $data/orkut.txt --method lp" "${ork[*]} --method lp" \
                "${ork[*]} --method online" "${ork[*]} --method l2p"; do
      echo "== single $ql $qr ${mode%% *} ${mode##* }" >>"$out"
      # shellcheck disable=SC2086  # $mode is a flag list
      query "$bin/bccs_query" $mode --ql "$ql" --qr "$qr" >>"$out"
    done
  done <"$data/pairs.txt"
  for batch in "$data"/batch.*; do
    for method in lp online l2p; do
      for threads in 1 4; do
        echo "== batch ${batch##*/} $method threads=$threads" >>"$out"
        query "$bin/bccs_query" "${ork[@]}" --batch-file "$batch" --method "$method" \
          --threads "$threads" | sed 's/, [0-9]* threads,/,/' >>"$out"
      done
    done
  done
  while read -r triple; do
    for source in "--graph $data/livejournal-m.txt" "${lj[*]}"; do
      echo "== mbcc $triple ${source%% *}" >>"$out"
      # shellcheck disable=SC2086  # $source is a flag list
      query "$bin/bccs_query" $source --queries "$triple" >>"$out"
    done
  done <"$data/triples.txt"
}

for side in base head; do
  echo "running $side"
  run_side "$side"
done

runs="$(grep -c '^== ' "$tmp/out/head.txt")"
answered="$(grep -c -e '^community (' -e '^  \[' "$tmp/out/head.txt" || true)"
if diff -u "$tmp/out/base.txt" "$tmp/out/head.txt" >"$tmp/out/diff.txt"; then
  echo "answer_diff: $runs runs, $answered answer lines, identical to ${base_sha:0:12}"
  exit 0
fi
echo "answer_diff: answers differ from ${base_sha:0:12}:" >&2
head -n 60 "$tmp/out/diff.txt" >&2
exit 1
