#!/usr/bin/env bash
# Run every CLI command in two source trees and print `diff -r` of their outputs,
# then, where they differ, what moved (tools/report_moves.py).
#
#     tools/compare_outputs.sh BASE_TREE HEAD_TREE OUT_DIR [CONFIG ...]
#
# Each tree is a checkout of this repository, such as one made by
# `git worktree add` or `git archive`.  Each CONFIG is read relative to the
# tree (an absolute path is the same file for both); an empty CONFIG is the
# default configuration.  Without any, the default configuration and the
# two examples run.  Every command writes OUT_DIR/{base,head}/<config>-<command>/:
# report.json with its output_dir masked, the profiles and stages.csv, and
# `exit` with the exit code.  Exits 0 when the two output trees are
# identical and 1 when they differ; then report_moves.py prints every moved
# float of each report.json, old -> new, and every other change apart.
set -uo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,15p' "$0" >&2
  exit 2
fi
tools=$(cd "$(dirname "$0")" && pwd)
base=$(cd "$1" && pwd) head=$(cd "$2" && pwd)
mkdir -p "$3" && out=$(cd "$3" && pwd)
shift 3
configs=("$@")
[ $# -gt 0 ] || configs=("" examples/existence_2d.json examples/existence_3d.json)

for side in base head; do
  tree=${!side}
  for config in "${configs[@]}"; do
    tag=$(basename "${config:-default}" .json)
    for cmd in verify sharp solve continue diagnose; do
      dir="$out/$side/$tag-$cmd"
      status=0
      (cd "$tree" && PYTHONPATH=src python3 -m poissonext.cli "$cmd" \
        ${config:+--config "$config"} --out "$dir" > /dev/null) || status=$?
      mkdir -p "$dir"
      echo "$status" > "$dir/exit"
      if [ -f "$dir/report.json" ]; then
        sed -i -E 's/^( *"output_dir": )".*"(,?)$/\1"<masked>"\2/' "$dir/report.json"
      fi
    done
  done
done

if diff -r "$out/base" "$out/head"; then
  echo "outputs identical: $(ls "$out/head" | wc -l) runs"
else
  echo "outputs differ"
  python3 "$tools/report_moves.py" "$out/base" "$out/head"
  exit 1
fi
